"""User populations with realistic popularity skew.

The paper assumes applications "may have a large number of users" and
that "the frequency at which an application is used is much higher than
the frequency at which a manager adds or revokes access rights".  A
:class:`UserPopulation` provides the user universe and a Zipf-like
popularity distribution over it, so cache behaviour in simulations has
the hot-user/cold-user structure real services see.

Populations are *lazy*: user names follow the arithmetic scheme
``f"{prefix}{i}"`` and are synthesised on demand, so a 10^6-principal
population costs O(1) memory until something actually asks for names.
Two samplers are available:

``"exact"`` (default)
    Inverse-CDF over the normalised Zipf weights — the historical
    sampler, draw-for-draw identical to every recorded trace.  Its
    cumulative table (O(n) floats) is built lazily on first draw.

``"harmonic"``
    Devroye's rejection-inversion sampler: O(1) memory and O(1)
    expected time per draw at any population size.  It consumes the
    RNG differently, so its draw stream is *versioned* — seeds produce
    different (equally Zipf-distributed) sequences than ``"exact"``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

from ..core.ids import Interner, NameRange

__all__ = ["UserPopulation", "DiurnalRate"]

_SAMPLERS = ("exact", "harmonic")


class _RejectionInversionZipf:
    """Devroye's rejection-inversion Zipf(s) sampler over ``1..n``.

    O(1) memory, O(1) expected draws; exact for the bounded Zipf
    distribution (not an approximation).  Requires ``s > 0``.
    """

    __slots__ = ("n", "s", "_h_x1", "_h_n", "_threshold")

    def __init__(self, n: int, s: float):
        self.n = n
        self.s = s
        self._h_x1 = self._h_integral(1.5) - 1.0
        self._h_n = self._h_integral(n + 0.5)
        self._threshold = 2.0 - self._h_integral_inverse(
            self._h_integral(2.5) - self._h(2.0)
        )

    def _h(self, x: float) -> float:
        return math.exp(-self.s * math.log(x))

    def _h_integral(self, x: float) -> float:
        """``∫ h`` : ``(x^{1-s} - 1) / (1-s)``, with the s→1 limit."""
        log_x = math.log(x)
        return self._expm1_over_x((1.0 - self.s) * log_x) * log_x

    def _h_integral_inverse(self, x: float) -> float:
        t = x * (1.0 - self.s)
        if t < -1.0:
            t = -1.0  # guard against round-off below the pole
        return math.exp(self._log1p_over_x(t) * x)

    @staticmethod
    def _expm1_over_x(x: float) -> float:
        """``(exp(x) - 1) / x`` with the x→0 limit via series."""
        if abs(x) > 1e-8:
            return math.expm1(x) / x
        return 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + x * 0.25))

    @staticmethod
    def _log1p_over_x(x: float) -> float:
        """``log1p(x) / x`` with the x→0 limit via series."""
        if abs(x) > 1e-8:
            return math.log1p(x) / x
        return 1.0 - x * (0.5 - x * (1.0 / 3.0 - x * 0.25))

    def sample(self, rng: random.Random) -> int:
        """Draw a rank in ``1..n`` with probability ∝ ``rank**-s``."""
        while True:
            u = self._h_n + rng.random() * (self._h_x1 - self._h_n)
            x = self._h_integral_inverse(u)
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > self.n:
                k = self.n
            if k - x <= self._threshold or u >= (
                self._h_integral(k + 0.5) - self._h(float(k))
            ):
                return k


class UserPopulation:
    """A fixed set of users with Zipf(``s``) access popularity.

    ``s = 0`` gives uniform popularity; ``s ~ 1`` is the classic
    heavy-tailed web-workload shape.  Names are ``f"{prefix}{i}"`` and
    exist only virtually — see the module docstring for the memory
    model and the ``sampler`` choices.
    """

    def __init__(
        self,
        n_users: int,
        zipf_s: float = 1.0,
        prefix: str = "u",
        sampler: str = "exact",
    ):
        if n_users < 1:
            raise ValueError("population needs at least one user")
        if zipf_s < 0:
            raise ValueError("zipf exponent must be non-negative")
        if sampler not in _SAMPLERS:
            raise ValueError(f"sampler must be one of {_SAMPLERS}")
        self.n_users = n_users
        self.zipf_s = zipf_s
        self.prefix = prefix
        self.sampler = sampler
        self.users = NameRange(prefix, n_users)
        self._cumulative: Optional[List[float]] = None  # exact, lazy
        self._rejection: Optional[_RejectionInversionZipf] = None

    def __len__(self) -> int:
        return self.n_users

    def __iter__(self) -> Iterator[str]:
        return iter(self.users)

    # -- identity ----------------------------------------------------------------
    def index_of(self, user: str) -> int:
        """The uid of ``user``; raises ``ValueError`` if unknown."""
        return self.users.index(user)

    def interner(self) -> Interner:
        """An :class:`~repro.core.ids.Interner` whose dense block *is*
        this population: every member name maps arithmetically to its
        uid with no per-name storage anywhere."""
        return Interner(dense_prefix=self.prefix, dense_count=self.n_users)

    # -- sampling ----------------------------------------------------------------
    def _exact_cumulative(self) -> List[float]:
        if self._cumulative is None:
            # Reproduce the historical arithmetic exactly (same
            # intermediate list, same summation order) so draws stay
            # identical to recorded traces; the weights list itself is
            # transient.
            weights = [
                1.0 / (rank**self.zipf_s)
                for rank in range(1, self.n_users + 1)
            ]
            total = sum(weights)
            self._cumulative = list(
                itertools.accumulate(w / total for w in weights)
            )
        return self._cumulative

    def sample_id(self, rng: random.Random) -> int:
        """Draw one uid by popularity."""
        if self.sampler == "harmonic":
            if self.zipf_s == 0:
                return rng.randrange(self.n_users)
            if self._rejection is None:
                self._rejection = _RejectionInversionZipf(
                    self.n_users, self.zipf_s
                )
            return self._rejection.sample(rng) - 1
        cumulative = self._exact_cumulative()
        index = bisect.bisect_left(cumulative, rng.random())
        return min(index, self.n_users - 1)

    def sample(self, rng: random.Random) -> str:
        """Draw one user by popularity."""
        return self.users[self.sample_id(rng)]

    def head(self, count: int) -> Sequence[str]:
        """The ``count`` most popular users."""
        return self.users[:count]

    def __repr__(self) -> str:
        return (
            f"UserPopulation(n_users={self.n_users}, zipf_s={self.zipf_s},"
            f" sampler={self.sampler!r})"
        )


@dataclass(frozen=True)
class DiurnalRate:
    """A sinusoidal daily arrival-rate profile for Poisson thinning.

    ``rate(t) = base * (1 + amplitude * sin(2π (t - phase) / period))``
    — mean ``base``, peak ``base * (1 + amplitude)``.  Pass one to
    :class:`~repro.workloads.generators.AccessWorkload` in place of a
    flat float rate to get day/night traffic shape.
    """

    base: float
    amplitude: float = 0.5
    period: float = 86_400.0
    phase: float = 0.0

    def __post_init__(self):
        if self.base <= 0:
            raise ValueError("base rate must be positive")
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError("amplitude must be in [0, 1]")
        if self.period <= 0:
            raise ValueError("period must be positive")

    @property
    def peak(self) -> float:
        """The majorising rate used by the thinning loop."""
        return self.base * (1.0 + self.amplitude)

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at simulation time ``t``."""
        return self.base * (
            1.0
            + self.amplitude
            * math.sin(2.0 * math.pi * (t - self.phase) / self.period)
        )
