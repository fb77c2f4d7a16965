"""The MPI tool information interface (MPI_T), performance variables.

MPI-3.1 chapter 14: implementations expose internal performance
variables ("pvars") that tools read at runtime.  MPICH's CH4 uses this
interface heavily for exactly the quantities this reproduction tracks —
queue depths, match statistics, fallback counts, per-category
instruction spend — so the runtime exposes them the same way:

>>> session = PvarSession(comm.proc)          # doctest: +SKIP
>>> session.read("unexpected_queue_length")   # doctest: +SKIP
0

Variables are read-only counters/levels; the registry is the
implementation-defined enumeration MPI_T prescribes
(``MPI_T_pvar_get_num`` / ``get_info`` / ``read``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import MPIErrArg
from repro.instrument.categories import Category, Subsystem

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.proc import Proc


class PvarClass(enum.Enum):
    """MPI_T performance-variable classes (the subset used here)."""

    LEVEL = "level"          #: instantaneous value (queue depth)
    COUNTER = "counter"      #: monotonically increasing count
    TIMER = "timer"          #: accumulated time


@dataclass(frozen=True)
class PvarInfo:
    """Metadata of one performance variable (MPI_T_pvar_get_info)."""

    name: str
    pvar_class: PvarClass
    description: str
    reader: Callable[["Proc"], float]


def _category_reader(category: Category):
    return lambda proc: proc.counter.by_category[category]


def _subsystem_reader(subsystem: Subsystem):
    return lambda proc: proc.counter.by_subsystem[subsystem]


def _build_registry() -> dict[str, PvarInfo]:
    registry: dict[str, PvarInfo] = {}

    def add(name, cls, description, reader):
        registry[name] = PvarInfo(name, cls, description, reader)

    add("posted_queue_length", PvarClass.LEVEL,
        "receives posted and not yet matched",
        lambda proc: proc.engine.pending_counts()[0])
    add("unexpected_queue_length", PvarClass.LEVEL,
        "messages arrived before their receive was posted",
        lambda proc: proc.engine.pending_counts()[1])
    add("messages_deposited", PvarClass.COUNTER,
        "messages delivered into this rank's matching engine",
        lambda proc: proc.engine.n_deposited)
    add("matches_on_posted_queue", PvarClass.COUNTER,
        "arrivals that found a posted receive",
        lambda proc: proc.engine.n_matched_posted)
    add("matches_on_unexpected_queue", PvarClass.COUNTER,
        "posted receives that found a queued message",
        lambda proc: proc.engine.n_matched_unexpected)
    add("instructions_total", PvarClass.COUNTER,
        "abstract instructions charged on this rank",
        lambda proc: proc.counter.total)
    add("virtual_time_seconds", PvarClass.TIMER,
        "this rank's virtual clock",
        lambda proc: proc.vclock.now)
    add("compute_time_seconds", PvarClass.TIMER,
        "application compute charged on this rank",
        lambda proc: proc.compute_seconds)
    add("netmod_native_ops", PvarClass.COUNTER,
        "operations the netmod ran on its fast path",
        lambda proc: proc.device.netmod.n_native)
    add("netmod_am_fallbacks", PvarClass.COUNTER,
        "operations routed through the active-message fallback",
        lambda proc: proc.device.netmod.n_am_fallback)
    add("shmmod_native_ops", PvarClass.COUNTER,
        "operations carried by the shared-memory module",
        lambda proc: proc.device.shmmod.n_native)
    add("request_waits_parked", PvarClass.COUNTER,
        "waits that found their request pending and parked the thread "
        "(a wait on a request already complete counts nothing)",
        lambda proc: proc.request_pool.n_parked)
    add("request_wakes_direct", PvarClass.COUNTER,
        "parked waits woken by the completing thread itself, through "
        "the request's parked slot (the rest: aborts, second waiters)",
        lambda proc: proc.request_pool.n_woken)

    for category in Category:
        add(f"instructions_{category.value}", PvarClass.COUNTER,
            f"instructions attributed to {category.value}",
            _category_reader(category))
    for subsystem in Subsystem:
        add(f"mandatory_{subsystem.value}", PvarClass.COUNTER,
            f"mandatory instructions from {subsystem.value}",
            _subsystem_reader(subsystem))
    return registry


#: The implementation's pvar enumeration (MPI_T_pvar_get_num etc.).
PVARS: dict[str, PvarInfo] = _build_registry()


def pvar_get_num() -> int:
    """MPI_T_pvar_get_num."""
    return len(PVARS)


def pvar_names() -> list[str]:
    """All variable names, enumeration order."""
    return list(PVARS)


def pvar_get_info(name: str) -> PvarInfo:
    """MPI_T_pvar_get_info by name."""
    try:
        return PVARS[name]
    except KeyError:
        raise MPIErrArg(f"unknown performance variable {name!r}") from None


class PvarSession:
    """An MPI_T pvar session bound to one rank.

    Handles are implicit (name-addressed); ``read`` returns the current
    value, ``read_all`` snapshots everything, and ``delta`` measures a
    region, which is how the paper-style per-call attributions are
    gathered by tools.
    """

    def __init__(self, proc: "Proc"):
        self.proc = proc

    def read(self, name: str) -> float:
        """MPI_T_pvar_read."""
        return pvar_get_info(name).reader(self.proc)

    def read_all(self) -> dict[str, float]:
        """Snapshot every variable."""
        return {name: info.reader(self.proc)
                for name, info in PVARS.items()}

    def delta(self, fn: Callable[[], None]) -> dict[str, float]:
        """Run *fn* and return the change of every COUNTER/TIMER pvar
        (LEVEL pvars report their final value)."""
        before = self.read_all()
        fn()
        after = self.read_all()
        out = {}
        for name, info in PVARS.items():
            if info.pvar_class is PvarClass.LEVEL:
                out[name] = after[name]
            else:
                out[name] = after[name] - before[name]
        return out
