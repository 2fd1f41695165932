"""Delta-LSTM (Hashemi et al., ICML 2018) — offline neural baseline.

The clustering variant from the paper: addresses are k-means-clustered
into 6 locality regions; within each cluster, consecutive block deltas
form a token sequence over a bounded vocabulary of the cluster's most
common deltas; a 2-layer LSTM per cluster is trained to predict the
next delta.  Following the evaluated protocol (paper §4.3), training
uses only the *initial fraction* (10%) of each cluster's accesses,
while inference runs over the full trace — which is exactly why the
paper finds Delta-LSTM uncompetitive: deltas unseen during the early
window cannot be predicted later.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..ml.cluster import assign_1d, kmeans_1d
from ..ml.model import NextTokenLSTM
from ..types import MemoryAccess, Trace
from .base import Prefetcher


@dataclass(frozen=True)
class DeltaLSTMConfig:
    """Delta-LSTM knobs.

    Attributes:
        clusters: Address clusters (paper: 6).
        vocab_size: Most-common deltas kept per cluster (others map to
            an out-of-vocabulary token that never prefetches).
        train_fraction: Leading fraction of each cluster used for
            training (paper protocol: 0.10).
        embed_dim / hidden_dim / layers / window: Model shape.  [The
            paper uses 2×128 hidden; scaled down for CPU training —
            the protocol-driven weakness being reproduced does not
            depend on width.]
        epochs: Training epochs over the training windows.
        max_train_windows: Cap on training windows per cluster.
        degree: Prefetches per access.
        lr: Adam learning rate.
        seed: Seed for clustering and model init.
    """

    clusters: int = 6
    vocab_size: int = 65
    train_fraction: float = 0.10
    embed_dim: int = 16
    hidden_dim: int = 32
    layers: int = 2
    window: int = 8
    epochs: int = 3
    max_train_windows: int = 4000
    degree: int = 2
    lr: float = 3e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigError("train_fraction must be in (0, 1]")
        if self.clusters < 1 or self.vocab_size < 2 or self.degree < 1:
            raise ConfigError("clusters/vocab/degree out of range")


#: Token 0 is reserved for out-of-vocabulary deltas.
_OOV = 0


class _ClusterModel:
    """Per-cluster vocabulary + LSTM."""

    def __init__(self) -> None:
        self.delta_to_token: Dict[int, int] = {}
        self.token_to_delta: Dict[int, int] = {}
        self.model: Optional[NextTokenLSTM] = None
        self.context: List[int] = []
        self.last_block: Optional[int] = None


class DeltaLSTMPrefetcher(Prefetcher):
    """Clustered next-delta LSTM prefetcher (train-then-infer)."""

    name = "delta-lstm"

    def __init__(self, config: Optional[DeltaLSTMConfig] = None):
        self.config = config or DeltaLSTMConfig()
        self.centroids: Optional[np.ndarray] = None
        self._clusters: List[_ClusterModel] = []
        self.unseen_delta_predictions = 0

    # -- offline training ------------------------------------------------------

    def train(self, trace: Trace) -> None:
        cfg = self.config
        blocks = np.asarray([acc.block for acc in trace], dtype=float)
        self.centroids, labels = kmeans_1d(blocks, cfg.clusters,
                                           seed=cfg.seed)
        self._clusters = [_ClusterModel()
                          for _ in range(len(self.centroids))]
        for cluster_id, cluster in enumerate(self._clusters):
            member_blocks = blocks[labels == cluster_id].astype(int)
            deltas = np.diff(member_blocks)
            deltas = deltas[deltas != 0]
            if deltas.size < cfg.window + 2:
                continue
            train_len = max(cfg.window + 2,
                            int(deltas.size * cfg.train_fraction))
            train_deltas = deltas[:train_len]
            self._build_vocab(cluster, train_deltas)
            tokens = np.asarray(
                [cluster.delta_to_token.get(int(d), _OOV)
                 for d in train_deltas], dtype=int)
            cluster.model = NextTokenLSTM(
                vocab_size=cfg.vocab_size,
                embed_dim=cfg.embed_dim,
                hidden_dim=cfg.hidden_dim,
                layers=cfg.layers,
                window=cfg.window,
                lr=cfg.lr,
                seed=cfg.seed + cluster_id)
            cluster.model.fit(tokens, epochs=cfg.epochs,
                              max_windows=cfg.max_train_windows,
                              seed=cfg.seed + cluster_id)

    def _build_vocab(self, cluster: _ClusterModel,
                     deltas: np.ndarray) -> None:
        values, counts = np.unique(deltas, return_counts=True)
        order = np.argsort(-counts)
        kept = values[order][:self.config.vocab_size - 1]
        for token, delta in enumerate(kept, start=1):
            cluster.delta_to_token[int(delta)] = token
            cluster.token_to_delta[token] = int(delta)

    # -- inference ----------------------------------------------------------

    def process(self, access: MemoryAccess) -> List[int]:
        # A one-access chunk.  Bound to the class so an instance-level
        # process_batch override (the base per-access loop) still ends
        # here rather than recursing.
        return DeltaLSTMPrefetcher.process_batch(
            self, [access.address], [access.pc], [access.instr_id])[0]

    def process_batch(self, addresses, pcs, instr_ids) -> List[List[int]]:
        """Chunked inference: one sequential pass, one forward per cluster.

        The first pass walks the chunk in program order doing what is
        order-dependent — cluster assignment (vectorised), each
        cluster's delta context and last block, the unseen-delta
        counter — and queues every full context.  The frozen models
        then rank all queued contexts of a cluster in one
        :meth:`~repro.ml.model.NextTokenLSTM.predict_topk_batch` call,
        whose answers do not depend on batch composition, so any chunk
        size gives the per-access prefetch file.
        """
        cfg = self.config
        results: List[List[int]] = [[] for _ in range(len(addresses))]
        if self.centroids is None or not results:
            return results
        blocks_arr = np.asarray(addresses, dtype=np.int64) >> 6
        cluster_ids = assign_1d(blocks_arr, self.centroids).tolist()
        blocks = blocks_arr.tolist()
        window = cfg.window
        queued: Dict[int, Tuple[List[int], List[List[int]]]] = {}
        for index, (cluster_id, block) in enumerate(zip(cluster_ids,
                                                        blocks)):
            cluster = self._clusters[cluster_id]
            if cluster.model is None:
                continue
            if cluster.last_block is not None and block != cluster.last_block:
                token = cluster.delta_to_token.get(block - cluster.last_block,
                                                   _OOV)
                if token == _OOV:
                    self.unseen_delta_predictions += 1
                cluster.context.append(token)
                if len(cluster.context) > window:
                    del cluster.context[0]
            cluster.last_block = block
            if len(cluster.context) == window:
                rows, contexts = queued.setdefault(cluster_id, ([], []))
                rows.append(index)
                contexts.append(list(cluster.context))

        for cluster_id, (rows, contexts) in queued.items():
            cluster = self._clusters[cluster_id]
            ranked = cluster.model.predict_topk_batch(contexts,
                                                      k=cfg.degree + 1)
            for index, tokens in zip(rows, ranked):
                results[index] = self._decode(cluster, blocks[index], tokens)
        return results

    def _decode(self, cluster: _ClusterModel, block: int,
                tokens: List[int]) -> List[int]:
        """Ranked delta tokens → up to ``degree`` prefetch addresses."""
        addresses: List[int] = []
        for token in tokens:
            delta = cluster.token_to_delta.get(token)
            if delta is None:  # OOV token predicts nothing
                continue
            target = block + delta
            if target > 0:
                addresses.append(target << 6)
            if len(addresses) >= self.config.degree:
                break
        return addresses

    def reset(self) -> None:
        for cluster in self._clusters:
            cluster.context = []
            cluster.last_block = None
