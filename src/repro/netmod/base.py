"""Netmod interface: capabilities, issue timing, AM fallback accounting.

A netmod is constructed per rank and owns that rank's injection
interface to one fabric.  Its job in this reproduction:

* declare which operations the modeled hardware supports natively
  (drives the fast-path-vs-AM-fallback branch in the CH4 core);
* charge the fabric's injection overhead to the rank's virtual clock
  and compute message arrival times;
* charge the extra instructions of the active-message fallback when
  the CH4 core routes an operation through it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from repro.fabric.model import FabricSpec
from repro.instrument.categories import Category, Subsystem
from repro.instrument.fastpath import fastpath

if TYPE_CHECKING:  # pragma: no cover
    from repro.runtime.proc import Proc

#: Extra origin-side instructions of the active-message fallback:
#: build the AM header and trigger the remote handler machinery.
AM_ORIGIN_OVERHEAD = 34
#: Extra instructions modeled for running an AM handler (charged at the
#: origin in this single-address-space substrate; documented in
#: DESIGN.md).
AM_HANDLER_OVERHEAD = 26


class IssueResult(NamedTuple):
    """Timing outcome of issuing one operation.

    Attributes
    ----------
    complete_s:
        Virtual time at which the *origin* considers the operation
        locally complete (buffer reusable).
    arrive_s:
        Virtual time at which the payload is available at the target.
    """

    complete_s: float
    arrive_s: float


@fastpath
def _charge_am_steps(proc: "Proc") -> None:
    """Origin-side AM header build + the (origin-charged) handler run."""
    proc.charge(Category.MANDATORY, AM_ORIGIN_OVERHEAD, Subsystem.DESCRIPTOR)
    proc.charge(Category.MANDATORY, AM_HANDLER_OVERHEAD, Subsystem.DESCRIPTOR)


class Netmod:
    """Base netmod; concrete modules override the capability flags."""

    #: Registry name.
    name = "base"
    #: Hardware can send non-contiguous layouts without packing.
    native_noncontig_send = False
    #: Hardware has RDMA put/get for contiguous data.
    native_rma_contig = True
    #: Hardware has RDMA for non-contiguous (e.g. iovec-capable) data.
    native_rma_noncontig = False
    #: Hardware performs atomics (accumulate) natively.
    native_atomics = False

    def __init__(self, proc: "Proc", spec: FabricSpec):
        self.proc = proc
        self.spec = spec
        #: Seconds one injection occupies the core: fixed by the fabric.
        self._inject_s = spec.cycles_to_seconds(spec.inject_cycles)
        #: Counters for tests/ablations.
        self.n_native = 0
        self.n_am_fallback = 0
        #: Parked injection-lane completions retired by the background
        #: progress engine rather than inline (observational).
        self.n_background_drains = 0

    def note_background_drain(self) -> None:
        """Record one parked completion drained by the progress engine.

        Called by the engine thread under the owning rank's CS lock;
        observational only — charged instruction counts and virtual
        times were fixed at issue time.
        """
        self.n_background_drains += 1

    # -- capability decisions (flow-through: full op knowledge) -----------

    def send_is_native(self, contig: bool) -> bool:
        """Can this send use the hardware path without packing help?"""
        return contig or self.native_noncontig_send

    def rma_is_native(self, contig: bool, atomic: bool = False) -> bool:
        """Can this RMA op run as RDMA, or must it fall back to AM?"""
        if atomic:
            return self.native_atomics
        return self.native_rma_contig if contig else self.native_rma_noncontig

    # -- issue -------------------------------------------------------------------

    @fastpath
    def charge_am_fallback(self) -> None:
        """Charge the active-message fallback overhead (origin side)."""
        proc = self.proc
        proc.charge(proc.plan("am_fallback", _charge_am_steps))

    @fastpath
    def issue(self, nbytes: int, native: bool,
              round_trip: bool = False, vci=None) -> IssueResult:
        """Charge injection overhead and compute completion/arrival times.

        Must be called *after* the device has charged the operation's
        software instructions (the clock then already includes them).

        *vci* identifies the injection lane under per-VCI sharding
        (``num_vcis > 1``): the injection is tallied on that VCI's
        counters.  Lane bookkeeping is observational — charges and
        timing are identical with or without it.
        """
        if not native:
            self.charge_am_fallback()
            self.n_am_fallback += 1
        else:
            self.n_native += 1
        if vci is not None:
            vci.note_injection(native)
        clock = self.proc.vclock
        clock.now = now = clock.now + self._inject_s
        arrive = now + self.spec.transfer_seconds(nbytes)
        # C-level construction: no frame for the generated __new__.
        return tuple.__new__(IssueResult, (
            arrive + self.spec.latency_s if round_trip else now, arrive))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(fabric={self.spec.name!r})"
