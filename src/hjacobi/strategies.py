"""Block-pivot schedules for the worker ring.

Both strategies start from the antidiagonal layout: worker q holds block
pair (q+1, 2p-q) (block indices are 1-based, nbl = 2p).  The modulus
stepper makes 2p steps per sweep and revisits the p-th superdiagonal pairs;
the modified round-robin makes the minimal 2p-1 steps and visits every pair
exactly once.  Per step every worker sends exactly one block to one ring
neighbor and receives one from the other; the direction alternates with the
sweep parity (sweeps count from 1, odd first).
"""

from dataclasses import dataclass

MODULUS = "modulus"
ROUND_ROBIN = "round_robin"
STRATEGIES = (MODULUS, ROUND_ROBIN)
ALIASES = {"rr": ROUND_ROBIN, "round-robin": ROUND_ROBIN}
# every name normalize_strategy accepts
STRATEGY_NAMES = STRATEGIES + tuple(ALIASES)


def normalize_strategy(name: str) -> str:
    name = ALIASES.get(name, name)
    if name not in STRATEGIES:
        raise ValueError(f"unknown strategy {name!r}")
    return name


def steps_per_sweep(strategy: str, p: int) -> int:
    return 2 * p if strategy == MODULUS else 2 * p - 1


@dataclass
class StrategyState:
    """Per-worker schedule state; (ip, jp) are the auxiliary indices the
    steppers advance, (i_blk, j_blk) the 1-based block pair currently held."""

    rank: int
    nbl: int
    ip: int
    jp: int
    i_blk: int
    j_blk: int
    nsweep: int = 1


@dataclass(frozen=True)
class StepPlan:
    """One exchange: send snd_blk to snd_rnk, receive rcv_blk from rcv_rnk.
    The pair held after the exchange is the stepped StrategyState's
    (i_blk, j_blk)."""

    snd_rnk: int
    snd_blk: int
    rcv_rnk: int
    rcv_blk: int


def init_strategy(rank: int, nbl: int) -> StrategyState:
    """Antidiagonal start: worker ``rank`` gets blocks (rank+1, nbl-rank)."""
    if nbl < 2 or nbl % 2:
        raise ValueError("nbl must be an even count >= 2")
    if not 0 <= rank < nbl // 2:
        raise ValueError(f"rank {rank} out of range for {nbl // 2} workers")
    ip = rank + 1
    jp = nbl - rank
    return StrategyState(rank=rank, nbl=nbl, ip=ip, jp=jp, i_blk=ip, j_blk=jp)


def _neighbors(rank: int, p: int, nsweep: int):
    if nsweep % 2 > 0:
        return (p + rank - 1) % p, (p + rank + 1) % p
    return (p + rank + 1) % p, (p + rank - 1) % p


def modulus_step(state: StrategyState, p: int) -> StepPlan:
    """Advance one modulus step, mutating ``state`` to the next pair."""
    nbl = state.nbl
    if state.ip + state.jp > nbl:
        snd_blk = state.i_blk
        state.ip += 1
        if state.ip == state.jp:
            state.ip -= nbl // 2
            state.jp = state.ip
        state.i_blk = state.ip
        rcv_blk = state.i_blk
    else:
        snd_blk = state.j_blk
        state.jp += 1
        state.j_blk = state.jp
        rcv_blk = state.j_blk
    snd_rnk, rcv_rnk = _neighbors(state.rank, p, state.nsweep)
    return StepPlan(snd_rnk, snd_blk, rcv_rnk, rcv_blk)


def round_robin_step(state: StrategyState, p: int) -> StepPlan:
    """Advance one modified round-robin step, mutating ``state``.

    The published pseudo-code for this stepper has inconsistent nesting; the
    branch structure below is the reconstruction that reproduces the
    tournament layouts (rotation by floor((2p-1)/2)) and is pinned by the
    schedule-enumeration tests: the wrap that sets ``swflag`` stores the pair
    already renumbered so i_blk < j_blk.
    """
    nbl = state.nbl
    if state.ip + state.jp > nbl:
        if state.jp < nbl:
            snd_blk = state.i_blk
            state.ip += 1
            if state.ip < state.jp:
                state.i_blk = state.ip
                rcv_blk = state.i_blk
            else:
                # reverted positions: renumber so i_blk < j_blk (swflag = 1)
                state.ip = state.jp
                state.i_blk = state.j_blk
                state.jp = nbl
                state.j_blk = nbl
                rcv_blk = state.j_blk
        else:
            if state.ip > nbl // 2:
                snd_blk = state.i_blk
                state.ip = state.ip - nbl // 2 + 1
                state.i_blk = state.ip
                rcv_blk = state.i_blk
            else:
                snd_blk = state.j_blk
                state.jp = state.ip + 1
                state.j_blk = state.jp
                rcv_blk = state.j_blk
    else:
        snd_blk = state.j_blk
        state.jp += 1
        state.j_blk = state.jp
        rcv_blk = state.j_blk
    snd_rnk, rcv_rnk = _neighbors(state.rank, p, state.nsweep)
    return StepPlan(snd_rnk, snd_blk, rcv_rnk, rcv_blk)


def step_fn(strategy: str):
    return modulus_step if strategy == MODULUS else round_robin_step


def generate_sweep_schedule(strategy: str, p: int, sweeps: int = 1):
    """Replay init + steppers for all ranks and record the global layouts.

    Returns a list (one entry per step) of lists of (i_blk, j_blk) pairs,
    indexed by rank, covering ``sweeps`` consecutive sweeps.  Raises if two
    workers ever hold the same block, or if a planned exchange is
    inconsistent (the sender of a received block is not the planned
    neighbor).
    """
    strategy = normalize_strategy(strategy)
    if p < 1:
        raise ValueError("p must be >= 1")
    nbl = 2 * p
    states = [init_strategy(q, nbl) for q in range(p)]
    stepper = step_fn(strategy)
    layouts = []
    for sweep in range(1, sweeps + 1):
        for q in range(p):
            states[q].nsweep = sweep
        for _ in range(steps_per_sweep(strategy, p)):
            layout = [(st.i_blk, st.j_blk) for st in states]
            held = [blk for pair in layout for blk in pair]
            if sorted(held) != list(range(1, nbl + 1)):
                raise RuntimeError(f"block collision in layout {layout}")
            layouts.append(layout)
            plans = [stepper(states[q], p) for q in range(p)]
            for q, plan in enumerate(plans):
                sender = plans[plan.rcv_rnk]
                if sender.snd_blk != plan.rcv_blk or sender.snd_rnk != q:
                    raise RuntimeError(
                        f"inconsistent exchange at rank {q}: plan {plan}, "
                        f"sender plan {sender}"
                    )
    return layouts
