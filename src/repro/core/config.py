"""Build configurations.

A :class:`BuildConfig` is this library's equivalent of configuring and
compiling MPICH one particular way.  The five bars of the paper's
Figure 2 are five configs (four CH4 variants plus CH3 "Original"); the
datatype-survey experiment additionally varies :class:`IpoScope`.

Feature *disablement* is real here, not cosmetic: when
``error_checking`` is False the validation code is never invoked, when
``ipo`` is on the function-call prologue and the (class-dependent)
redundant datatype checks are skipped — so the instruction counters
reproduce Figure 2 because the work genuinely does not run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from repro.ft.detector import DetectorConfig
from repro.ft.plan import FaultPlan


class Device(enum.Enum):
    """Which abstract device the build uses (Figure 1)."""

    CH4 = "ch4"   #: the paper's lightweight device
    CH3 = "ch3"   #: "MPICH/Original" — the layered baseline


class IpoScope(enum.Enum):
    """Link-time-inlining scope (Section 2.2).

    ``MPI_ONLY`` inlines the MPI library's performance-critical
    functions into the application — enough to fold Class-2 (compile-
    time constant) datatype checks.  ``WHOLE_PROGRAM`` subsumes the
    application and its libraries too, additionally folding Class-3
    (runtime-constant) datatype checks at the cost of a much larger
    executable.
    """

    NONE = "none"
    MPI_ONLY = "mpi_only"
    WHOLE_PROGRAM = "whole_program"


@dataclass(frozen=True)
class BuildConfig:
    """One build of the MPI library.

    Attributes
    ----------
    device:
        CH4 (lightweight) or CH3 (Original baseline).
    error_checking:
        Validate arguments/objects on every call (Table 1 row 1).
    thread_safety:
        Perform the runtime thread-safety check and take the critical
        section (Table 1 row 2).  Functionally this build really does
        take a per-rank lock around the device call.
    ipo_scope:
        Link-time inlining scope; NONE leaves the function-call
        prologue and all redundant runtime checks in place.
    fabric:
        Name of the inter-node fabric model (see :mod:`repro.fabric`).
    shm_fabric:
        Name of the intra-node shmmod fabric model.
    rank_translation:
        ``"compressed"`` (O(1) memory, 11-instruction lookup — the
        calibrated default) or ``"direct"`` (O(P) table, 2
        instructions).
    eager_threshold:
        CH3 eager/rendezvous switch in bytes; None uses the fabric's
        default.
    force_am_fallback:
        Ablation switch: route every CH4 operation through the
        active-message fallback even when the netmod could do it
        natively (``benchmarks/bench_ablation_fastpath.py``).
    sanitize:
        Enable the dynamic MPI-correctness sanitizer
        (:mod:`repro.sanitize`): cross-rank deadlock detection,
        request-leak reports at finalize, send-buffer ownership
        checks, and RMA epoch validation.  Off by default; when off,
        no sanitizer hook runs and charged instruction accounting is
        byte-identical to a build without the sanitizer.
    num_vcis:
        Number of virtual communication interfaces (VCIs) per rank
        (:mod:`repro.runtime.vci`).  Each VCI bundles its own lock,
        matching-engine shard, completion segment, and injection
        counters, so concurrent MPI calls from different app threads
        contend only when they hash to the same VCI — the MPICH
        per-VCI critical-section design (Zambre et al., Zhou et al.).
        The default ``1`` builds the plain single-engine,
        single-``cs_lock`` runtime and is byte-identical in charged
        instruction counts to the calibrated 221/215 fast paths;
        ``num_vcis > 1`` changes only real-Python lock granularity,
        never charges.
    fault_plan:
        A seeded :class:`~repro.ft.plan.FaultPlan` describing a lossy
        fabric (drop/duplicate/reorder/delay/corrupt probabilities and
        an optional rank kill).  Building with a plan layers the
        ack/retransmit reliability protocol (:mod:`repro.ft`) under
        the device and charges it as ``Category.RELIABILITY``; the
        default ``None`` builds no fault-tolerance state at all and
        charges byte-identically to the calibrated Figure 2 / Table 1
        numbers (the runtime reaches the fault layer only through a
        rank's hook seam, ``proc.hooks`` — audit rule FP308).
        ``FaultPlan()`` (all rates zero) enables the protocol
        and the ``MPIX_Comm_*`` recovery APIs on a lossless wire.
    progress:
        Background progress engine (:mod:`repro.progress`).
        ``"thread"`` runs one daemon progress thread per rank;
        ``"per-vci"`` runs one per VCI (lane *i* serviced by thread
        *i*, rank-level continuations and retransmit timers by thread
        0).  The engine drains parked netmod injection lanes, fires
        ``ft`` retransmit timers off the virtual clock, and runs
        request continuations (``Request.on_complete``) so rendezvous
        and nonblocking collectives advance with *zero* user polls —
        the "MPI Progress For All" discipline.  Requires
        ``thread_safety=True``.  The default ``None`` builds no engine
        and charges byte-identically to the calibrated Figure 2 /
        Table 1 numbers (reached only through the hook seam — audit
        rule FP308); engine work is charged to
        ``Category.PROGRESS``, off the application's critical path.
    communicator_name:
        ChainerMN-style collective-strategy selector governing how the
        buffer collectives (``Bcast``/``Reduce``/``Allreduce``) route
        internally (:mod:`repro.mpi.hier`):

        * ``"naive"`` — the simplest trees only (binomial bcast,
          reduce+bcast allreduce), no size-based algorithm selection;
        * ``"flat"`` (default) — flat algorithms over the whole
          communicator with MPICH-style size-based selection
          (recursive doubling below
          :data:`repro.mpi.collectives.ALLREDUCE_RECDOUBLE_MAX_BYTES`,
          reduce+bcast above; ring and reduce-scatter+allgather
          selectable per call via ``algorithm=``);
        * ``"hierarchical"`` — split every collective into an
          intra-node phase (leader reduce/bcast over the shm-class
          netmod path, :class:`repro.fabric.topology.Topology`
          locality) and an inter-node phase (fabric path among node
          leaders);
        * ``"two_dimensional"`` — the transpose composition: an
          inter-node reduce along each core-index column, an
          intra-node allreduce across the column roots, and an
          inter-node bcast back down the columns.

        Strategy routing only changes which point-to-point schedule a
        collective issues; the per-message charges are the calibrated
        device path either way, so Figure 2 / Table 1 charging is
        byte-identical under every strategy
        (``TestChargeInvisibleBuilds``).
    detector:
        Heartbeat failure detector (:mod:`repro.ft.detector`).  A
        :class:`~repro.ft.detector.DetectorConfig` arms suspect →
        confirmed-dead escalation for explicitly registered ranks
        (dynamic session/client ranks register automatically): a rank
        that goes silent past ``suspect_s`` is suspected, past
        ``confirm_s`` it is confirmed dead through the fault layer's
        ``mark_dead`` — the same path an explicit ``kill_rank`` plan
        takes, so pending receives fail with ``MPI_ERR_PROC_FAILED``
        and the ``MPIX_Comm_*`` recovery collectives apply unchanged.
        Requires a ``fault_plan`` build (the detector feeds the fault
        layer's world-global failure state).  The default ``None``
        builds no detector (the hook seam has none to call — audit
        rule FP308); the detector itself is charge-observational, so
        charging stays byte-identical to the calibrated Figure 2 /
        Table 1 numbers either way.
    tsan:
        Hybrid race & deadlock detector (:mod:`repro.tsan`), in the
        style of Eraser + FastTrack: instrumented runtime locks and
        annotated shared-state accesses maintain per-thread vector
        clocks and per-field locksets, reporting TS401 data races
        (no happens-before edge *and* empty lockset intersection),
        TS402 lock-order inversions from the observed lock graph,
        TS403 locks held across blocking waits, and TS404
        continuations dispatched under engine locks.  Purely
        observational: the detector charges nothing, and the default
        ``False`` builds none (runtime locks come plain from the hook
        seam's factory — audit rule FP308), so charging stays
        byte-identical to the calibrated Figure 2 / Table 1 numbers
        either way.
    """

    device: Device = Device.CH4
    error_checking: bool = True
    thread_safety: bool = True
    ipo_scope: IpoScope = IpoScope.NONE
    fabric: str = "infinite"
    shm_fabric: str = "posix"
    rank_translation: str = "compressed"
    eager_threshold: int | None = None
    force_am_fallback: bool = False
    sanitize: bool = False
    num_vcis: int = 1
    fault_plan: FaultPlan | None = None
    progress: str | None = None
    communicator_name: str = "flat"
    detector: DetectorConfig | None = None
    tsan: bool = False

    def __post_init__(self) -> None:
        """Reject an illegal build at construction: each choice field
        against the set its consumer accepts, the two numeric ranges,
        and the two cross-field requirements."""
        # This module sits at the bottom of the import graph, so the
        # legal sets are imported from their owners only when called.
        from repro.fabric.model import FABRICS
        from repro.mpi.hier import STRATEGIES
        from repro.netmod.registry import NETMODS
        from repro.netmod.shm import _SHMMODS
        from repro.progress.engine import MODES
        from repro.runtime.ranktrans import TRANSLATIONS
        choices = {
            "device": tuple(Device),
            "ipo_scope": tuple(IpoScope),
            # A build needs both the timing model and a netmod.
            "fabric": tuple(n for n in NETMODS if n in FABRICS),
            "shm_fabric": tuple(_SHMMODS),
            "rank_translation": tuple(TRANSLATIONS),
            "progress": (None, *MODES),
            "communicator_name": STRATEGIES,
        }
        for name, legal in choices.items():
            if getattr(self, name) not in legal:
                raise self._illegal(name, f"one of {legal}")
        if self.num_vcis < 1:
            raise self._illegal("num_vcis", "an integer >= 1")
        if self.eager_threshold is not None and self.eager_threshold < 0:
            raise self._illegal("eager_threshold", "None or bytes >= 0")
        if self.progress is not None and not self.thread_safety:
            raise self._illegal(
                "progress", "None unless thread_safety=True (the engine's "
                "threads charge under the rank's critical section)")
        if self.detector is not None and self.fault_plan is None:
            raise self._illegal(
                "detector", "None unless fault_plan is set (confirmation "
                "feeds the fault layer; FaultPlan() enables it on a "
                "lossless wire)")

    def _illegal(self, name: str, expected: str) -> ValueError:
        return ValueError(f"BuildConfig.{name}={getattr(self, name)!r}: "
                          f"expected {expected}")

    @property
    def ipo(self) -> bool:
        """True when any link-time inlining is enabled."""
        return self.ipo_scope is not IpoScope.NONE

    def with_fabric(self, fabric: str) -> "BuildConfig":
        """This config with a different inter-node fabric."""
        return replace(self, fabric=fabric)

    def label(self) -> str:
        """Figure-2-style label for this build."""
        if self.device is Device.CH3:
            return "mpich/original"
        if not self.error_checking and not self.thread_safety and self.ipo:
            return "mpich/ch4 (no-err-single-ipo)"
        if not self.error_checking and not self.thread_safety:
            return "mpich/ch4 (no-err-single)"
        if not self.error_checking:
            return "mpich/ch4 (no-err)"
        return "mpich/ch4 (default)"

    # -- Figure 2 presets ---------------------------------------------------

    @staticmethod
    def original(**overrides) -> "BuildConfig":
        """MPICH/Original: the CH3 device, default features."""
        return BuildConfig(device=Device.CH3, **overrides)

    @staticmethod
    def default(**overrides) -> "BuildConfig":
        """MPICH/CH4 default build."""
        return BuildConfig(**overrides)

    @staticmethod
    def no_errors(**overrides) -> "BuildConfig":
        """CH4 with error checking compiled out."""
        return BuildConfig(error_checking=False, **overrides)

    @staticmethod
    def no_thread_check(**overrides) -> "BuildConfig":
        """CH4 single-threaded build (no errors, no thread check)."""
        return BuildConfig(error_checking=False, thread_safety=False,
                           **overrides)

    @staticmethod
    def ipo_build(scope: IpoScope = IpoScope.MPI_ONLY,
                  **overrides) -> "BuildConfig":
        """CH4 with link-time inlining on top of the single-threaded
        build — the paper's best within-standard configuration."""
        return BuildConfig(error_checking=False, thread_safety=False,
                           ipo_scope=scope, **overrides)


def named_builds(fabric: str = "infinite") -> dict[str, BuildConfig]:
    """The five Figure-2/Figures-3-5 builds, in plot order."""
    return {
        "mpich/original": BuildConfig.original(fabric=fabric),
        "mpich/ch4 (default)": BuildConfig.default(fabric=fabric),
        "mpich/ch4 (no-err)": BuildConfig.no_errors(fabric=fabric),
        "mpich/ch4 (no-err-single)": BuildConfig.no_thread_check(fabric=fabric),
        "mpich/ch4 (no-err-single-ipo)": BuildConfig.ipo_build(fabric=fabric),
    }
