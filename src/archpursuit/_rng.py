"""Counter-based random streams shared by serial, distributed and Monte Carlo code.

All randomness in the package flows through Philox (a counter-based generator
with a fixed, published algorithm), keyed through ``numpy.random.SeedSequence``
spawn keys.  Streams are addressed by ``(seed, domain, index)``:

* ``domain`` separates unrelated uses of the same user seed (functional
  directions vs. instance generation vs. Monte Carlo sampling), so they never
  alias.
* within a domain, values are laid out as fixed-width "rows" of the Philox
  counter.  Row ``j`` occupies counter blocks ``[j*B, (j+1)*B)`` where ``B``
  covers ``row_len`` draws, so any row can be regenerated in isolation, in any
  order, on any worker — exactly what the shared-seed distributed protocol
  requires.

Gaussians are produced by inverse-CDF transform of fixed-consumption uniforms
(one 64-bit draw per value), keeping the counter arithmetic exact.  The usual
ziggurat sampler consumes a variable number of draws and would break
addressability.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox, SeedSequence
from scipy.special import ndtri

# Philox-4x64 emits 4 uint64 words per counter increment; Philox.advance()
# counts increments, not words.
_WORDS_PER_BLOCK = 4

# Stream domains.  Values are part of the reproducibility contract: changing
# them changes every seeded result.
DOMAIN_FUNCTIONALS = 0
DOMAIN_ANGLES = 1
DOMAIN_INSTANCE = 2
DOMAIN_TRIALS = 3
DOMAIN_CAPS = 4


def _philox(seed: int, domain: int, block_offset: int = 0) -> Philox:
    key = SeedSequence(seed, spawn_key=(domain,)).generate_state(2, dtype=np.uint64)
    bg = Philox(key=key)
    if block_offset:
        bg.advance(block_offset)
    return bg


def generator(seed: int, domain: int) -> Generator:
    """Sequential generator for the (seed, domain) stream, starting at counter 0."""
    return Generator(_philox(seed, domain))


def child_seed(seed: int, domain: int, index: int) -> int:
    """Derive an independent integer seed, e.g. one per trial of an experiment."""
    ss = SeedSequence(seed, spawn_key=(domain, index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def uniform_rows(seed: int, domain: int, first_row: int, n_rows: int, row_len: int) -> np.ndarray:
    """Rows ``[first_row, first_row + n_rows)`` of the (seed, domain) uniform table.

    Each row holds ``row_len`` doubles in [0, 1) and is padded to a whole
    number of Philox counter blocks, so ``uniform_rows(s, d, j, 1, L)`` always
    reproduces row ``j`` of any wider request.
    """
    if n_rows < 0 or row_len <= 0:
        raise ValueError("n_rows must be >= 0 and row_len positive")
    blocks_per_row = -(-row_len // _WORDS_PER_BLOCK)
    padded = blocks_per_row * _WORDS_PER_BLOCK
    bg = _philox(seed, domain, first_row * blocks_per_row)
    u = Generator(bg).random(n_rows * padded)
    return u.reshape(n_rows, padded)[:, :row_len]


def gaussian_rows(seed: int, domain: int, first_row: int, n_rows: int, row_len: int) -> np.ndarray:
    """Standard-normal variant of :func:`uniform_rows` (same addressing)."""
    u = uniform_rows(seed, domain, first_row, n_rows, row_len)
    # u lies on the 2^-53 grid in [0, 1 - 2^-53]: the half-ulp shift moves 0
    # off 0 and the clamp undoes its rounding of the top point to 1.0, so
    # ndtri never sees an endpoint.  In place: u is a fresh array, and two
    # fewer temporaries of its size keep the peak memory down.
    u += 2.0 ** -54
    np.minimum(u, 1.0 - 2.0 ** -53, out=u)
    return ndtri(u, out=u)


def functionals(seed: int, first: int, count: int, p: int) -> np.ndarray:
    """Columns ``[first, first + count)`` of the p x m Gaussian functional matrix G.

    Every worker holding the same seed regenerates identical columns from the
    counter alone, regardless of which columns it asks for first.
    """
    return gaussian_rows(seed, DOMAIN_FUNCTIONALS, first, count, p).T
