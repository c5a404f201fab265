"""A fixed reference kernel that gauges how fast the machine runs right now.

It does the same kind of work as the library's hot loop (Gram products of
small complex matrices, mirrored Hermitian storage, a masked entrywise map,
``eigvalsh``, dict bookkeeping) but never imports psdmask, so no change to
the library can change its time.  Runs interleave it with the workload's
calls.  On a shared machine other tenants slow both by about the same factor
over a run, so a call's time divided by the reference's time is far steadier
from run to run than the call's time alone.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Share of the measured call time that is spent again on the reference.
SHARE = 0.25

# Passes over the inputs in one chunk.
REPEATS = 3

# A chunk's time on the development machine when quiet (Xeon, 2 vCPUs,
# Python 3.11, numpy 2.4, OpenBLAS on one thread).  Only a fixed scale:
# reference seconds are seconds on a machine that runs a chunk this fast.
NOMINAL_CHUNK_S = 0.002

# Chunks run before the first call and after the last one.
PRIME_CHUNKS = 10


def _inputs():
    rng = np.random.default_rng(20200131)
    out = []
    for n in range(2, 9):
        for _ in range(2):
            out.append(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return out


_FACTORS = _inputs()


def chunk() -> float:
    """Run one fixed chunk of reference work; return its wall time in seconds."""
    t0 = perf_counter()
    tally: dict[int, float] = {}
    for B in _FACTORS * REPEATS:
        n = B.shape[0]
        H = np.array(B @ B.conj().T, dtype=np.complex128)
        low = np.tril_indices(n, -1)
        H[low] = np.conj(H.T[low])
        np.fill_diagonal(H, H.diagonal().real)
        mask = np.zeros((n, n), dtype=bool)
        mask[: n // 2, : n // 2] = True
        image = np.where(mask, H, -0.5 * H)
        w = np.linalg.eigvalsh(image)
        tally[n] = tally.get(n, 0.0) + float(w[0]) + float(w[-1])
    if not all(np.isfinite(v) for v in tally.values()):
        raise ArithmeticError("reference kernel produced a non-finite value")
    return perf_counter() - t0


class Gauge:
    """Interleaves reference chunks with timed calls and rescales the calls.

    After each call it runs the reference work that call owes (``SHARE`` of
    its time).  Every call is then divided by the mean chunk time of the
    windows just before and just after it, and multiplied by
    ``NOMINAL_CHUNK_S``: the result is the call's time in reference
    seconds, i.e. on the machine that runs a chunk in ``NOMINAL_CHUNK_S``.
    """

    def __init__(self):
        self.times: list[float] = []
        self.scaled: dict[object, list[float]] = {}
        self._owed = 0.0
        self._pending: list[tuple[object, float]] = []
        self._before: float | None = None

    def prime(self) -> None:
        """Measure the window before the first call."""
        ran = [chunk() for _ in range(PRIME_CHUNKS)]
        self.times += ran
        self._before = sum(ran) / len(ran)

    def after_call(self, key, call_s: float) -> None:
        self._pending.append((key, call_s))
        self._owed += SHARE * call_s
        ran = []
        while self._owed > 0.0:
            t = chunk()
            ran.append(t)
            self._owed -= t
        if ran:
            self._settle(ran)

    def flush(self) -> None:
        """Close the window after the last call."""
        if self._pending:
            self._settle([chunk() for _ in range(PRIME_CHUNKS)])

    def _settle(self, ran: list[float]) -> None:
        self.times += ran
        after = sum(ran) / len(ran)
        unit = after if self._before is None else (self._before + after) / 2.0
        for key, call_s in self._pending:
            self.scaled.setdefault(key, []).append(call_s * NOMINAL_CHUNK_S / unit)
        self._pending.clear()
        self._before = after

    @property
    def scale(self) -> float:
        """Factor from seconds to reference seconds, over the whole run."""
        return NOMINAL_CHUNK_S * len(self.times) / sum(self.times)
