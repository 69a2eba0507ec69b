"""Sampling utilities shared by Pie inferlets and the baseline engines.

Pie returns a (top-K truncated) next-token distribution to the inferlet,
which then samples *in the application*; the monolithic baselines sample on
the "GPU".  Both paths use the functions here so that, given the same
logits and the same RNG stream, they produce identical tokens — which is
what lets the tests compare Pie output against baseline output token by
token.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError


def softmax(logits: np.ndarray, temperature: float = 1.0) -> np.ndarray:
    """Numerically stable softmax with a temperature knob."""
    if temperature <= 0:
        raise ReproError("temperature must be positive; use greedy_sample for argmax")
    scaled = np.asarray(logits, dtype=np.float64) / temperature
    scaled = scaled - scaled.max()
    exp = np.exp(scaled)
    return exp / exp.sum()


@dataclass(frozen=True)
class TokenDistribution:
    """A (possibly truncated) next-token distribution.

    Pie truncates the distribution returned to inferlets to the top-K
    vocabulary entries (default 256) to bound transfer size; ``token_ids``
    and ``probs`` are aligned and sorted by descending probability.
    """

    token_ids: Tuple[int, ...]
    probs: Tuple[float, ...]
    truncated: bool = False

    def __post_init__(self) -> None:
        if len(self.token_ids) != len(self.probs):
            raise ReproError("token_ids and probs must have the same length")

    def max_index(self) -> int:
        """Token id with the highest probability (greedy choice)."""
        if not self.token_ids:
            raise ReproError("empty distribution")
        return self.token_ids[int(np.argmax(self.probs))]

    def prob_of(self, token_id: int) -> float:
        for tid, p in zip(self.token_ids, self.probs):
            if tid == token_id:
                return p
        return 0.0

    def as_dict(self) -> Dict[int, float]:
        return dict(zip(self.token_ids, self.probs))

    def top(self, n: int) -> List[Tuple[int, float]]:
        order = np.argsort(self.probs)[::-1][:n]
        return [(self.token_ids[i], self.probs[i]) for i in order]

    def restricted(self, allowed: Sequence[int]) -> "TokenDistribution":
        """Distribution renormalised over an allowed token set (may be empty)."""
        allowed_set = set(allowed)
        pairs = [
            (tid, p) for tid, p in zip(self.token_ids, self.probs) if tid in allowed_set
        ]
        if not pairs:
            return TokenDistribution(token_ids=(), probs=(), truncated=self.truncated)
        total = sum(p for _, p in pairs)
        return TokenDistribution(
            token_ids=tuple(t for t, _ in pairs),
            probs=tuple(p / total for _, p in pairs),
            truncated=self.truncated,
        )

    def sample(self, rng: np.random.Generator) -> int:
        return sample_from_dist(self, rng)

    def __len__(self) -> int:
        return len(self.token_ids)


def top_k_dist(logits: np.ndarray, k: int, temperature: float = 1.0) -> TokenDistribution:
    """Build a top-K truncated :class:`TokenDistribution` from raw logits."""
    if k < 1:
        raise ReproError(f"top-k must be at least 1, got {k}")
    probs = softmax(logits, temperature=temperature)
    vocab = probs.shape[0]
    k = min(k, vocab)
    top_indices = np.argpartition(probs, -k)[-k:]
    top_indices = top_indices[np.argsort(probs[top_indices])[::-1]]
    top_probs = probs[top_indices]
    return TokenDistribution(
        token_ids=tuple(top_indices.tolist()),
        probs=tuple((top_probs / top_probs.sum()).tolist()),
        truncated=k < vocab,
    )


def greedy_sample(logits: np.ndarray) -> int:
    """Argmax over logits."""
    return int(np.argmax(logits))


def sample_from_dist(
    dist: TokenDistribution,
    rng: np.random.Generator,
    top_p: Optional[float] = None,
) -> int:
    """Sample a token id from a distribution, with optional nucleus cutoff."""
    if not dist.token_ids:
        raise ReproError("cannot sample from an empty distribution")
    token_ids = np.asarray(dist.token_ids)
    probs = np.asarray(dist.probs, dtype=np.float64)
    order = np.argsort(probs)[::-1]
    token_ids = token_ids[order]
    probs = probs[order]
    if top_p is not None:
        if not 0 < top_p <= 1:
            raise ReproError("top_p must be in (0, 1]")
        cumulative = np.cumsum(probs)
        cutoff = int(np.searchsorted(cumulative, top_p) + 1)
        token_ids = token_ids[:cutoff]
        probs = probs[:cutoff]
    probs = probs / probs.sum()
    choice = rng.choice(len(token_ids), p=probs)
    return int(token_ids[choice])


def apply_repetition_penalty(
    logits: np.ndarray, generated: Sequence[int], penalty: float
) -> np.ndarray:
    """Classic repetition penalty: divide positive logits / multiply negative."""
    if penalty <= 0:
        raise ReproError("repetition penalty must be positive")
    adjusted = np.array(logits, dtype=np.float64, copy=True)
    for token in set(generated):
        if adjusted[token] > 0:
            adjusted[token] /= penalty
        else:
            adjusted[token] *= penalty
    return adjusted
