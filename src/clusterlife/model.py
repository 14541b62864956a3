"""Cluster description, spatial-correlation models, conditional-load engine.

A cluster is a set of nodes polled once per slot in some order. Because the
base station decodes each node before polling the next, the bits a node must
send are conditioned on everything polled before it. Two correlation models
are supported:

* ``BitDistance``: integer bit counts driven by inter-node distance; a node's
  conditional load given a polled prefix is the minimum over the prefix of
  ceil(d_ij) capped at n.
* ``GaussianField``: a jointly Gaussian field with squared-exponential
  covariance; conditional loads are Gaussian conditional (differential)
  entropies in bits, shifted by a user-supplied quantization offset.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ModelDegeneracyError, ValidationError

# 0.5*log2(2*pi*e): marginal entropy of a unit-variance Gaussian, in bits.
HALF_LOG2_2PIE = 0.5 * math.log2(2.0 * math.pi * math.e)

# Polling sequences handled per batch by ClusterSpec.loads: the stacked
# (block, k, k) work arrays stay at a few MB however many orders are asked for.
_LOADS_BLOCK = 4096


class SubsetLayer(NamedTuple):
    """The node sets of one size p, as bit masks, and their one-node extensions."""

    masks: np.ndarray  # (m,) ascending masks of the size-p sets
    free: np.ndarray  # (m, N - p) ascending ids of the nodes outside each set
    after: np.ndarray  # (m, N - p) mask of each set plus each of its free nodes
    seqs: np.ndarray  # (m * (N - p), p + 1) sequences [sorted set..., free node], row-major over (set, node)


@functools.lru_cache(maxsize=4)
def subset_layers(n: int) -> tuple[SubsetLayer, ...]:
    """The proper subsets of nodes 0..n-1 grouped by size, p = 0..n-1.

    The arrays depend on n alone, so they are cached and read-only.
    """
    masks = np.arange(1 << n)
    inside = (masks[:, None] >> np.arange(n)) & 1 == 1
    size = inside.sum(axis=1)
    layers = []
    for p in range(n):
        sets = masks[size == p]
        free = np.nonzero(~inside[sets])[1].reshape(-1, n - p)
        members = np.nonzero(inside[sets])[1].reshape(len(sets), p)
        seqs = np.concatenate([np.repeat(members, n - p, axis=0), free.reshape(-1, 1)], axis=1)
        layer = SubsetLayer(sets, free, sets[:, None] | (1 << free), seqs)
        for arr in layer:
            arr.flags.writeable = False
        layers.append(layer)
    return tuple(layers)


@dataclass(frozen=True)
class NodeSpec:
    """One sensor: identity, planar position, battery, channel path loss."""

    id: int
    position: tuple[float, float]
    energy: float
    path_loss: float

    def __post_init__(self):
        if self.energy <= 0:
            raise ValidationError(f"node {self.id}: energy must be positive, got {self.energy}")
        if self.path_loss <= 0:
            raise ValidationError(
                f"node {self.id}: path_loss must be positive, got {self.path_loss}"
            )


@dataclass(frozen=True)
class BitDistance:
    """Distance-thresholded integer bit model with per-sample maximum n."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"bit-distance n must be >= 1, got {self.n}")


@dataclass(frozen=True)
class GaussianField:
    """Squared-exponential Gaussian field: K_ij = sigma2 * exp(-a * d_ij**2).

    ``offset`` is the bits added to each differential entropy to account for
    quantization; it must be large enough to keep every conditional load used
    for scheduling strictly positive.
    """

    sigma2: float
    a: float
    offset: float = 0.0

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValidationError(f"sigma2 must be positive, got {self.sigma2}")
        if self.a < 0:
            raise ValidationError(f"decay a must be nonnegative, got {self.a}")


CorrelationModel = BitDistance | GaussianField


@dataclass(frozen=True)
class Schedule:
    """A polling order and the conditional load each position must transmit."""

    order: tuple[int, ...]
    loads: np.ndarray  # bits per slot, aligned with order positions

    def loads_by_node(self, n: int) -> np.ndarray:
        """Reindex loads from polling position to node id."""
        out = np.zeros(n)
        out[list(self.order)] = self.loads
        return out


class ClusterSpec:
    """Immutable cluster: node list plus a correlation model.

    Node ids must be exactly 0..N-1. The slot length is normalized to one
    time unit, so loads are bits per slot and lifetimes are slot counts.
    """

    def __init__(self, nodes: Sequence[NodeSpec], correlation: CorrelationModel):
        nodes = tuple(nodes)
        if not nodes:
            raise ValidationError("cluster needs at least one node")
        ids = sorted(node.id for node in nodes)
        if ids != list(range(len(nodes))):
            raise ValidationError(f"node ids must be 0..{len(nodes) - 1} with no gaps, got {ids}")
        self.nodes = tuple(sorted(nodes, key=lambda nd: nd.id))
        self.correlation = correlation
        self.positions = np.array([node.position for node in self.nodes], dtype=float)
        self.energies = np.array([node.energy for node in self.nodes], dtype=float)
        self.path_losses = np.array([node.path_loss for node in self.nodes], dtype=float)
        diff = self.positions[:, None, :] - self.positions[None, :, :]
        self.distances = np.sqrt((diff**2).sum(axis=2))
        # Pairwise table read by loads(): bits for BitDistance, covariance
        # for GaussianField.
        if isinstance(correlation, BitDistance):
            self._pair = np.where(self.distances <= correlation.n, np.ceil(self.distances), float(correlation.n))
        else:
            self._pair = correlation.sigma2 * np.exp(-correlation.a * self.distances**2)
            np.fill_diagonal(self._pair, correlation.sigma2)
            self._check_gaussian()

    @property
    def n(self) -> int:
        return len(self.nodes)

    def _check_gaussian(self):
        if self.n >= 2:
            if self.correlation.a == 0:
                raise ModelDegeneracyError("a = 0 makes the covariance singular for N >= 2")
            off_diag = self.distances[~np.eye(self.n, dtype=bool)]
            if off_diag.size and off_diag.min() == 0:
                raise ModelDegeneracyError("duplicate node positions make the covariance singular")
        try:
            np.linalg.cholesky(self.covariance(range(self.n)))
        except np.linalg.LinAlgError as exc:
            raise ModelDegeneracyError(f"covariance is not positive definite: {exc}") from exc

    def pairwise_distance(self, i: int, j: int) -> float:
        self._check_id(i)
        self._check_id(j)
        return float(self.distances[i, j])

    def _check_id(self, i):
        if not (isinstance(i, (int, np.integer)) and 0 <= i < self.n):
            raise ValidationError(f"unknown node id {i!r}")

    def covariance(self, ids: Sequence[int]) -> np.ndarray:
        """Covariance submatrix of the Gaussian field over the given nodes."""
        if not isinstance(self.correlation, GaussianField):
            raise ValidationError("covariance requires a GaussianField model")
        idx = list(ids)
        for i in idx:
            self._check_id(i)
        return self._pair[np.ix_(idx, idx)]

    def loads(self, seqs) -> np.ndarray:
        """Conditional loads of a batch of polling sequences.

        ``seqs`` is an (M, k) integer array whose rows are orders or prefixes
        with distinct node ids; entry (r, j) of the result is the bits node
        ``seqs[r, j]`` sends once ``seqs[r, :j]`` are decoded. Rows are handled
        in blocks of ``_LOADS_BLOCK`` so memory stays bounded at N! rows.
        """
        seqs = np.asarray(seqs)
        if seqs.ndim != 2 or (seqs.size and not np.issubdtype(seqs.dtype, np.integer)):
            raise ValidationError(
                f"polling sequences must be an (M, k) integer array, got {seqs.dtype} of shape {seqs.shape}"
            )
        if seqs.size and (seqs.min() < 0 or seqs.max() >= self.n):
            raise ValidationError(f"polling sequences hold node ids outside 0..{self.n - 1}")
        ranked = np.sort(seqs, axis=1)
        if np.any(ranked[:, 1:] == ranked[:, :-1]):
            raise ValidationError("a polling sequence repeats a node id")
        return self._checked_loads(seqs)

    def _checked_loads(self, seqs: np.ndarray) -> np.ndarray:
        """``loads`` on an (M, k) integer array already known to hold valid sequences."""
        k = seqs.shape[1]
        out = np.empty(seqs.shape)
        for start in range(0, len(seqs), _LOADS_BLOCK):
            block = seqs[start:start + _LOADS_BLOCK]
            pair = self._pair[block[:, :, None], block[:, None, :]]
            if isinstance(self.correlation, BitDistance):
                # position j keeps the cheapest pairwise bits over positions < j
                h = pair.min(axis=2, where=np.tri(k, k, -1, dtype=bool), initial=self.correlation.n)
            else:
                # the Cholesky diagonal of the reordered covariance holds every
                # conditional standard deviation along the sequence at once
                try:
                    chol = np.linalg.cholesky(pair)
                except np.linalg.LinAlgError as exc:
                    raise ModelDegeneracyError(f"covariance is not positive definite: {exc}") from exc
                h = HALF_LOG2_2PIE + np.log2(np.diagonal(chol, axis1=1, axis2=2)) + self.correlation.offset
                if np.any(h <= 0):
                    r, j = np.argwhere(h <= 0)[0]
                    raise ModelDegeneracyError(
                        f"conditional load for node {block[r, j]} given {block[r, :j].tolist()} "
                        f"is {h[r, j]} <= 0; increase the model offset"
                    )
            out[start:start + len(block)] = h
        return out

    def subset_loads(self) -> np.ndarray:
        """(2^N, N) table of the bits node k sends once the node set S is decoded.

        Row S is a bit mask (node j is in S when bit j is set); entries with k
        in S are NaN. A node's conditional load depends only on the set polled
        before it, so this table prices every polling order. Each size of S is
        one ``loads`` pass over the sequences ``[sorted(S)..., k]``.
        """
        table = np.full((1 << self.n, self.n), np.nan)
        for layer in subset_layers(self.n):
            table[layer.masks[:, None], layer.free] = self._checked_loads(layer.seqs)[:, -1].reshape(layer.free.shape)
        return table

    def conditional_bits(self, i: int, prefix: Sequence[int]) -> float:
        """Bits node i must send given a polled prefix."""
        return float(self.loads([[*prefix, i]])[0, -1])

    def schedule_loads(self, order: Sequence[int]) -> Schedule:
        """Conditional load of every position of a polling order."""
        order = tuple(int(i) for i in order)
        if len(order) != self.n:
            raise ValidationError(f"order {order} is not a permutation of 0..{self.n - 1}")
        return Schedule(order, self.loads([order])[0])

    def joint_entropy(self) -> float:
        """Total bits of the full cluster (Gaussian), offset included per node."""
        if not isinstance(self.correlation, GaussianField):
            raise ValidationError("joint_entropy requires a GaussianField model")
        sign, logdet = np.linalg.slogdet(self.covariance(range(self.n)))
        if sign <= 0:
            raise ModelDegeneracyError("covariance is not positive definite")
        return self.n * (HALF_LOG2_2PIE + self.correlation.offset) + 0.5 * logdet / math.log(2.0)
