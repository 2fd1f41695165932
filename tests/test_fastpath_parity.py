"""Fast-path vs reference parity for the sparse SNN/encoder hot paths.

The optimised implementations (table-driven encoding, active-pixel
drive, winner-column STDP, sparse Poisson sampling, the compiled
window kernel) each retain their dense reference twin; these tests
assert the two agree — same encodings, same winners, same learned
state, and, end to end, the same prefetch file — across the Figure-9
config toggles and random inputs.  PATHFINDER's generation pipeline
is further pinned to golden prefetch-file digests recorded before its
per-access twin was folded into the batched passes.
"""

import copy

import numpy as np
import pytest

from repro.core import PathfinderConfig, PathfinderPrefetcher
from repro.core.pixel import PixelMatrixEncoder
from repro.prefetchers import generate_prefetches
from repro.snn.network import DiehlCookNetwork, NetworkConfig
from repro.traces import make_trace

#: The §3.4 refinement toggles the ablation ladder sweeps.
ENCODER_VARIANTS = [
    dict(enlarge_pixels=False, reorder_pixels=False),
    dict(enlarge_pixels=True, reorder_pixels=False),
    dict(enlarge_pixels=True, reorder_pixels=True),
    dict(enlarge_pixels=True, reorder_pixels=True, middle_shift=3),
    dict(enlarge_pixels=True, reorder_pixels=False, delta_range=31,
         history=5),
]


def _random_histories(config, rng, n):
    bound = config.max_delta
    return [list(rng.integers(-bound, bound + 1, size=config.history))
            for _ in range(n)]


@pytest.mark.parametrize("overrides", ENCODER_VARIANTS)
def test_encode_matches_reference(overrides):
    config = PathfinderConfig(**overrides)
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(7)
    for deltas in _random_histories(config, rng, 50):
        fast = encoder.encode(deltas)
        reference = encoder.encode_reference(deltas)
        assert np.array_equal(fast, reference)


def _padded_key(encoder, deltas, first_offset=None):
    """The padded history key PATHFINDER's table pass builds: the
    cold-page padding of :meth:`PixelMatrixEncoder.encode_history`."""
    height = encoder.config.history
    if len(deltas) >= height:
        return tuple(deltas[-height:])
    if not deltas:
        return (encoder._clip(first_offset),) + (0,) * (height - 1)
    return (0,) * (height - len(deltas)) + tuple(deltas)


def _sparse(encoder, deltas):
    return encoder.encode_padded_key(tuple(deltas))


@pytest.mark.parametrize("overrides", ENCODER_VARIANTS)
def test_encode_history_sparse_matches_dense(overrides):
    """The sparse encoding of a padded history key equals the dense
    :meth:`~PixelMatrixEncoder.encode_history` of the same history."""
    config = PathfinderConfig(**overrides)
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(11)
    # Mix of full histories, short histories, and offset-only starts —
    # the sparse path must reproduce every cold-page special case.
    cases = [(deltas, None) for deltas in _random_histories(config, rng, 30)]
    cases += [(deltas[:k], None)
              for deltas in _random_histories(config, rng, 10)
              for k in (1, 2)]
    cases += [([], int(offset)) for offset in rng.integers(0, 64, size=5)]
    for deltas, first_offset in cases:
        dense = encoder.encode_history(deltas, first_offset=first_offset)
        sparse = encoder.encode_padded_key(
            _padded_key(encoder, deltas, first_offset))
        assert np.array_equal(sparse.rates, dense)
        assert np.array_equal(sparse.active, np.flatnonzero(dense))


def test_encode_history_sparse_cache_hits_are_shared():
    encoder = PixelMatrixEncoder(PathfinderConfig())
    first = encoder.encode_padded_key((1, 2, 4))
    again = encoder.encode_padded_key((1, 2, 4))
    assert again is first
    assert encoder.cache_hits == 1 and encoder.cache_misses == 1
    assert not first.rates.flags.writeable


def _twin_networks(n_input, seed=3, **net_overrides):
    cfg_kwargs = dict(n_input=n_input, n_neurons=20, seed=seed,
                      **net_overrides)
    fast = DiehlCookNetwork(NetworkConfig(**cfg_kwargs), fast=True)
    reference = DiehlCookNetwork(NetworkConfig(**cfg_kwargs), fast=False)
    assert np.array_equal(fast.weights, reference.weights)
    return fast, reference


@pytest.mark.parametrize("overrides", ENCODER_VARIANTS)
def test_rank_one_tick_matches_reference(overrides):
    config = PathfinderConfig(**overrides)
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(13)
    fast, reference = _twin_networks(config.n_input)
    for deltas in _random_histories(config, rng, 25):
        encoding = _sparse(encoder, deltas)
        scores_fast = fast.rank_one_tick(encoding.rates,
                                         active=encoding.active)
        scores_ref = reference.rank_one_tick(encoding.rates)
        assert int(np.argmax(scores_fast)) == int(np.argmax(scores_ref))
        np.testing.assert_allclose(scores_fast, scores_ref, rtol=1e-12)
    # Non-binary rates exercise the slice-matvec fallback.
    rates = np.zeros(config.n_input)
    hot = rng.choice(config.n_input, size=12, replace=False)
    rates[hot] = rng.uniform(0.2, 0.9, size=12)
    np.testing.assert_allclose(
        fast.rank_one_tick(rates), reference.rank_one_tick(rates),
        rtol=1e-12)


@pytest.mark.parametrize("overrides", ENCODER_VARIANTS)
def test_present_one_tick_matches_reference(overrides):
    config = PathfinderConfig(**overrides)
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(17)
    fast, reference = _twin_networks(config.n_input)
    for step, deltas in enumerate(_random_histories(config, rng, 60)):
        encoding = _sparse(encoder, deltas)
        rec_fast = fast.present_one_tick(encoding.rates, learn=True,
                                         active=encoding.active)
        rec_ref = reference.present_one_tick(encoding.rates, learn=True)
        assert rec_fast.winner == rec_ref.winner, f"diverged at step {step}"
        assert np.array_equal(rec_fast.spike_counts, rec_ref.spike_counts)
        assert rec_fast.winners(3) == rec_ref.winners(3)
        assert rec_fast.next_best_potential == pytest.approx(
            rec_ref.next_best_potential, rel=1e-9)
    np.testing.assert_allclose(fast.weights, reference.weights, rtol=1e-9)
    np.testing.assert_allclose(fast.exc.theta, reference.exc.theta,
                               rtol=1e-9)


def test_full_interval_present_matches_reference():
    """present() with sparse Poisson sampling draws the identical spike
    trains (the full uniform block keeps the RNG stream aligned)."""
    config = PathfinderConfig()
    encoder = PixelMatrixEncoder(config)
    fast, reference = _twin_networks(config.n_input)
    rng = np.random.default_rng(19)
    for deltas in _random_histories(config, rng, 8):
        rates = encoder.encode(list(deltas))
        rec_fast = fast.present(rates, learn=True)
        rec_ref = reference.present(rates, learn=True)
        assert rec_fast.winner == rec_ref.winner
        assert np.array_equal(rec_fast.spike_counts, rec_ref.spike_counts)
        assert rec_fast.first_spike_tick == rec_ref.first_spike_tick
        assert rec_fast.boosts_used == rec_ref.boosts_used
    assert np.array_equal(fast.weights, reference.weights)
    assert np.array_equal(fast.exc.theta, reference.exc.theta)


def _prefetch_file(config, trace):
    requests = generate_prefetches(PathfinderPrefetcher(config), trace,
                                   budget=2)
    return [(r.trigger_instr_id, r.address) for r in requests]


@pytest.mark.parametrize("one_tick", [True, False])
def test_full_run_prefetch_file_bit_identical(one_tick):
    """The acceptance bar: fast_snn on/off emit the same prefetch file."""
    trace = make_trace("cc-5", 2500, seed=1)
    fast = _prefetch_file(
        PathfinderConfig(one_tick=one_tick, fast_snn=True), trace)
    reference = _prefetch_file(
        PathfinderConfig(one_tick=one_tick, fast_snn=False), trace)
    assert fast == reference
    assert fast, "expected a non-empty prefetch file"


# -- batched columnar driver parity -------------------------------------------

import hashlib  # noqa: E402

from repro.errors import EngineFallbackWarning  # noqa: E402
from repro.harness.runner import make_prefetcher  # noqa: E402
from repro.obs import Observability  # noqa: E402
from repro.prefetchers.base import Prefetcher  # noqa: E402
from repro.resilience.faults import FaultPlan, injected  # noqa: E402
from repro.snn import ckernel  # noqa: E402
from repro.snn.encoding import flatten_active_windows  # noqa: E402
from repro.snn.network import HEALTH_CHECK_INTERVAL  # noqa: E402

#: Every prefetcher that overrides :meth:`Prefetcher.process_batch`.
BATCHED_PREFETCHERS = ("nextline", "bo", "sisb", "spp", "pathfinder",
                       "delta-lstm", "voyager", "pathfinder+nl+sisb",
                       "adaptive-ensemble")

#: Behaviourally distinct workloads: graph-irregular, temporal-replay,
#: and delta-pattern heavy.
BATCH_WORKLOADS = ("cc-5", "482-sphinx-s0", "623-xalan-s1")

_batch_traces = {}
_scalar_files = {}


def _batch_trace(workload):
    if workload not in _batch_traces:
        _batch_traces[workload] = make_trace(workload, 2500, seed=5)
    return _batch_traces[workload]


#: Offline-trained prefetchers, and their trained (name, workload) cells.
TRAINED_PREFETCHERS = ("delta-lstm", "voyager")
_trained_cells = {}


def _trained(name, workload):
    """A prefetcher ready for ``train=False`` generation on
    ``workload``: offline training runs once per cell, and each call
    gets its own deep copy of the result."""
    if name not in TRAINED_PREFETCHERS:
        return make_prefetcher(name)
    key = (name, workload)
    if key not in _trained_cells:
        prefetcher = make_prefetcher(name)
        prefetcher.train(_batch_trace(workload))
        _trained_cells[key] = prefetcher
    return copy.deepcopy(_trained_cells[key])


def _with_dense_pathfinder(prefetcher):
    """``prefetcher`` with every PATHFINDER in it running the dense
    ``*_reference`` SNN — the oracle of the batched pipeline."""
    dense = PathfinderConfig(fast_snn=False)
    if isinstance(prefetcher, PathfinderPrefetcher):
        return PathfinderPrefetcher(dense)
    members = getattr(prefetcher, "members", [])
    for index, member in enumerate(members):
        if isinstance(member, PathfinderPrefetcher):
            members[index] = PathfinderPrefetcher(dense)
    return prefetcher


def _scalar_reference_file(workload, name):
    key = (workload, name)
    if key not in _scalar_files:
        prefetcher = _with_dense_pathfinder(_trained(name, workload))
        # Route every chunk through the per-access loop: the scalar
        # ``process`` of rule-based prefetchers, a one-access chunk
        # elsewhere.  This is the oracle the batched implementations
        # must reproduce.
        prefetcher.process_batch = (
            lambda a, p, i, _pf=prefetcher:
            Prefetcher.process_batch(_pf, a, p, i))
        _scalar_files[key] = generate_prefetches(
            prefetcher, _batch_trace(workload), budget=2, train=False)
    return _scalar_files[key]


@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
@pytest.mark.parametrize("name", BATCHED_PREFETCHERS)
def test_process_batch_matches_scalar(workload, name):
    """Batched prefetch files are bit-identical to the per-access
    oracle's, for every chunk size including single-access chunks."""
    trace = _batch_trace(workload)
    reference = _scalar_reference_file(workload, name)
    for chunk in (1, 7, len(trace)):
        assert generate_prefetches(_trained(name, workload), trace,
                                   budget=2, chunk=chunk,
                                   train=False) == reference, \
            f"{name} diverged on {workload} at chunk={chunk}"


def _without_window_kernel(monkeypatch):
    monkeypatch.setattr(ckernel, "load_kernel", lambda: None)


def test_pathfinder_batch_state_and_counters_match_scalar(monkeypatch):
    """Beyond the prefetch file: learned SNN state and telemetry
    counters from the batched pipeline equal those of one-access
    chunks through the per-query NumPy loop.  (The dense reference
    agrees on every winner but not on every weight bit: it
    renormalises all columns per query.)"""
    trace = _batch_trace("cc-5")
    batched = make_prefetcher("pathfinder")
    generate_prefetches(batched, trace, budget=2)
    scalar = make_prefetcher("pathfinder")
    _without_window_kernel(monkeypatch)
    with pytest.warns(EngineFallbackWarning, match="no SNN kernel"):
        generate_prefetches(scalar, trace, budget=2, chunk=1)
    assert batched.accesses_seen == scalar.accesses_seen
    assert batched.snn_queries == scalar.snn_queries
    assert batched.stdp_updates == scalar.stdp_updates
    assert batched.prefetches_emitted == scalar.prefetches_emitted
    assert batched.encoder.cache_hits == scalar.encoder.cache_hits
    assert batched.encoder.cache_misses == scalar.encoder.cache_misses
    assert batched.training_table.evictions == scalar.training_table.evictions
    assert np.array_equal(batched.network.input_to_exc.w,
                          scalar.network.input_to_exc.w)
    assert np.array_equal(batched.network.exc.theta,
                          scalar.network.exc.theta)
    assert (batched.network.intervals_presented
            == scalar.network.intervals_presented)


# -- golden prefetch-file digests ---------------------------------------------
#
# SHA-256 of ``"trigger_instr_id,address\n"`` lines, recorded on
# make_trace(workload, 2500, seed=5) with budget 2, before PATHFINDER's
# per-access path was folded into the batched pipeline.

#: PATHFINDER configs the golden digests cover.
GOLDEN_CONFIGS = {
    "default": {},
    "multi-tick": dict(one_tick=False),
    "periodic-stdp": dict(stdp_epoch=5000, stdp_on_accesses=100),
    "multi-degree": dict(one_tick=False, degree=3, inhibition_scale=0.2,
                         labels_per_neuron=1),
    "no-cold-page": dict(cold_page_encoding=False),
}

GOLDEN_DIGESTS = {
    ("cc-5", "default"):
        "31eb54657a72cf44da95b483cd24b308061f304d390e2a3adf89e7c6e048d74e",
    ("cc-5", "multi-tick"):
        "af40a522ae8d179e3efabb04409520376d2a47ee40ae0e4b37da6bf3f360d492",
    ("cc-5", "periodic-stdp"):
        "a1f2c4c7409fb040a4b6d9f7b1efdc44a86b9abae12781406d262ac1b254c594",
    ("cc-5", "multi-degree"):
        "a5cde065a98768e484975e461d2b91f0940a1344602aea772ed4f0b1c364984e",
    ("cc-5", "no-cold-page"):
        "424fdb634c660586ec2818e5c4658f1e1cd5a5f6c605f0524f9e20c7c80df81f",
    ("cc-5", "weight-nan"):
        "63dea4e57d336dd989d6c415a4e7410890bdf02f5223687b475eb08227fbd547",
    ("cc-5", "pathfinder+nl+sisb"):
        "f538df69fe4dfb3af69138b807b5de2f1eb4ffffcb61c298bc55c0965232a18e",
    ("cc-5", "adaptive-ensemble"):
        "72e7259b657aeaaae3601430e40cfd4639e9323ad1c879cd450e3a76716e3029",
    ("482-sphinx-s0", "default"):
        "206e684ebde6108e52b73356de75c242435f1064f6e2b8df64a357bc4a35e944",
    ("482-sphinx-s0", "multi-tick"):
        "38099368f710120f79deec2f6865ed8780c3c06e989ad0be55aaa6b5f77c6d42",
    ("482-sphinx-s0", "periodic-stdp"):
        "7d4873eff4866f3ce704aa30707ebc1dc7acdc37d3ca0502de0b2d24083a6200",
    ("482-sphinx-s0", "multi-degree"):
        "88a13f9abdcdb81ea2446acf1fffeb4ad97a21bea03f4fd4a1507d39be6ab74e",
    ("482-sphinx-s0", "no-cold-page"):
        "e4a892d1415468b9cfe335fe5306a83238e7467df56c8687da97907352fe074e",
    ("482-sphinx-s0", "weight-nan"):
        "55bf8aaa53f748c42a8b02f6cf7cb380a1ab64653e95d25d327bb4bf7889b548",
    ("482-sphinx-s0", "pathfinder+nl+sisb"):
        "38ea299ffa5fe29e7c343a77ad3db6877bd63f1e6ed4b40362c7381733333a4d",
    ("482-sphinx-s0", "adaptive-ensemble"):
        "3b487a61a5b343930320e1012782b6dfc27829b714c58d8266e51d9d60373f68",
    ("623-xalan-s1", "default"):
        "7ad3766c2e96757fb43088a73055e49cb772aa909e02a60a82f5460cb6dd8a06",
    ("623-xalan-s1", "multi-tick"):
        "24e0e69ef902e97a72b10450209cf970fad01d97db646f62ebf1f7f7221d55f1",
    ("623-xalan-s1", "periodic-stdp"):
        "a609fc1aedd28407c96364b2ce7b289088f53eb4694569d17ab85aa2fb64f218",
    ("623-xalan-s1", "multi-degree"):
        "1278da28c195fa72dac1b3387697f7fbec44e09be32c9f0d67a0f2e304dcb6b5",
    ("623-xalan-s1", "no-cold-page"):
        "616aae0042709e8106e6c66fe57d372395c74cba0637d9a25c8cebf87d18e539",
    ("623-xalan-s1", "weight-nan"):
        "c13ec3719a2dca5b9db363a1f8dec97bd52892d85e9319438bf12256e2e78a63",
    ("623-xalan-s1", "pathfinder+nl+sisb"):
        "317dd8793592ce893fac09ea4b33283f00d7ac4edf1ce0c0d5a598f8cd9dfb02",
    ("623-xalan-s1", "adaptive-ensemble"):
        "0af0ee9f5c3f90bf7123dbaf79294641ab63b2fcb8f265945d1be8d85dda34eb",
}

#: ``snn.*`` counters of an observed (monitor-armed) default run.
GOLDEN_SNN_COUNTERS = {
    "cc-5": dict(encoder_cache_hits=1828, encoder_cache_misses=672,
                 queries=2500, spikes=2500, stdp_updates=2500),
    "482-sphinx-s0": dict(encoder_cache_hits=1836, encoder_cache_misses=200,
                          queries=2036, spikes=2036, stdp_updates=2036),
    "623-xalan-s1": dict(encoder_cache_hits=1804, encoder_cache_misses=147,
                         queries=1951, spikes=1951, stdp_updates=1951),
}

#: The armed weight-NaN plan (unguarded run) and its repair count.
#: Late, repeated faults hit neurons that already hold labels, so the
#: digest pins when each repaired neuron's labels are erased.
WEIGHT_NAN_SPEC = "snn.weight_nan:after=300,count=20"
GOLDEN_WEIGHT_NAN_REPAIRS = 20


def _digest(requests):
    digest = hashlib.sha256()
    for request in requests:
        digest.update(
            f"{request.trigger_instr_id},{request.address}\n".encode())
    return digest.hexdigest()


@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
@pytest.mark.parametrize("config", sorted(GOLDEN_CONFIGS))
def test_pathfinder_prefetch_file_matches_golden_digest(workload, config):
    prefetcher = PathfinderPrefetcher(
        PathfinderConfig(**GOLDEN_CONFIGS[config]))
    requests = generate_prefetches(prefetcher, _batch_trace(workload),
                                   budget=2)
    assert _digest(requests) == GOLDEN_DIGESTS[(workload, config)]


@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
@pytest.mark.parametrize("name", ("pathfinder+nl+sisb", "adaptive-ensemble"))
def test_ensemble_prefetch_file_matches_golden_digest(workload, name):
    requests = generate_prefetches(make_prefetcher(name),
                                   _batch_trace(workload), budget=2)
    assert _digest(requests) == GOLDEN_DIGESTS[(workload, name)]


@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
def test_observed_run_matches_golden_digest_and_counters(workload):
    obs = Observability()
    prefetcher = make_prefetcher("pathfinder")
    prefetcher.attach_observability(obs)
    requests = generate_prefetches(prefetcher, _batch_trace(workload),
                                   budget=2)
    prefetcher.publish_telemetry()
    assert _digest(requests) == GOLDEN_DIGESTS[(workload, "default")]
    counters = {key.split("{")[0][len("snn."):]: value
                for key, value in obs.registry.snapshot()["counters"].items()
                if key.startswith("snn.")}
    assert counters == GOLDEN_SNN_COUNTERS[workload]
    assert prefetcher.monitor.intervals == prefetcher.snn_queries


@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
def test_weight_nan_run_matches_golden_digest_and_repairs(workload):
    """An armed fault plan takes the per-query loop; each repaired
    neuron's labels are erased at its query, as before."""
    prefetcher = make_prefetcher("pathfinder")
    with injected(FaultPlan.parse(WEIGHT_NAN_SPEC)):
        with pytest.warns(EngineFallbackWarning, match="fault plan armed"):
            requests = generate_prefetches(
                prefetcher, _batch_trace(workload), budget=2)
    assert _digest(requests) == GOLDEN_DIGESTS[(workload, "weight-nan")]
    assert prefetcher.neuron_repairs == GOLDEN_WEIGHT_NAN_REPAIRS
    assert prefetcher.snn_kernel == "fallback:fault plan armed"


# -- frozen-model batched inference ------------------------------------------

#: Two logits closer than this are a tie: the row-stable einsum path
#: and the training forward's BLAS ``@`` may order them differently.
NEAR_TIE = 1e-9


def _assert_rankings_agree(batched, oracle_order, logits):
    """Two rankings may differ only where their logits near-tie."""
    for mine, theirs in zip(batched, oracle_order):
        if mine != theirs:
            assert abs(logits[mine] - logits[theirs]) < NEAR_TIE


def _delta_lstm_oracle(model, context, k):
    """Top-k from the training forward on a (1, window) batch."""
    hidden = model.embedding.forward(np.asarray([context]))
    for lstm in model.lstms:
        hidden = lstm.forward(hidden)
    logits = model.head.forward(hidden[:, -1, :])[0]
    return np.argsort(-logits)[:k].tolist(), logits


@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
def test_delta_lstm_batched_topk_matches_training_forward(workload):
    prefetcher = _trained("delta-lstm", workload)
    answers = {}
    for cluster in prefetcher._clusters:
        model = cluster.model
        if model is None:
            continue

        def spy(contexts, k, _model=model):
            ranked = type(_model).predict_topk_batch(_model, contexts, k)
            for context, tokens in zip(contexts, ranked):
                answers[(id(_model), tuple(context))] = (_model, k, tokens)
            return ranked

        model.predict_topk_batch = spy
    generate_prefetches(prefetcher, _batch_trace(workload), budget=2,
                        train=False)
    assert answers, "expected queued contexts"
    for (_, context), (model, k, tokens) in answers.items():
        oracle, logits = _delta_lstm_oracle(model, context, k)
        _assert_rankings_agree(tokens, oracle, logits)


@pytest.mark.parametrize("workload", BATCH_WORKLOADS)
def test_voyager_batched_ranking_matches_training_forward(workload):
    prefetcher = _trained("voyager", workload)
    degree = prefetcher.config.degree
    answers = {}

    def spy(contexts):
        ranked = type(prefetcher)._infer(prefetcher, contexts)
        for context, row in zip(contexts, ranked.tolist()):
            answers[context.tobytes()] = (context, row)
        return ranked

    prefetcher._infer = spy
    generate_prefetches(prefetcher, _batch_trace(workload), budget=2,
                        train=False)
    assert answers, "expected queued contexts"
    for context, (page_token, *offsets) in answers.values():
        _, page_logits, offset_logits = prefetcher._forward(context[None])
        page_logits, offset_logits = page_logits[0], offset_logits[0]
        _assert_rankings_agree([page_token], [int(np.argmax(page_logits))],
                               page_logits)
        _assert_rankings_agree(
            offsets, np.argsort(-offset_logits)[:degree].tolist(),
            offset_logits)


def test_delta_lstm_unseen_deltas_match_scalar():
    trace = _batch_trace("623-xalan-s1")
    scalar = _trained("delta-lstm", "623-xalan-s1")
    scalar.process_batch = (
        lambda a, p, i: Prefetcher.process_batch(scalar, a, p, i))
    generate_prefetches(scalar, trace, budget=2, train=False)
    batched = _trained("delta-lstm", "623-xalan-s1")
    generate_prefetches(batched, trace, budget=2, train=False)
    assert batched.unseen_delta_predictions > 0
    assert (batched.unseen_delta_predictions
            == scalar.unseen_delta_predictions)


def test_frozen_inference_leaves_training_state_untouched():
    """Inference keeps no backward state: the caches the last training
    step left are the very same objects afterwards."""
    trace = _batch_trace("cc-5")
    delta = _trained("delta-lstm", "cc-5")
    lstms = [lstm for cluster in delta._clusters if cluster.model
             for lstm in cluster.model.lstms]
    voyager = _trained("voyager", "cc-5")
    lstms.append(voyager.lstm)
    before = [(lstm._cache, lstm._inputs) for lstm in lstms]
    tokens_before = voyager._batch_tokens
    assert tokens_before is not None
    for prefetcher in (delta, voyager):
        assert generate_prefetches(prefetcher, trace, budget=2, train=False)
    for lstm, (cache, inputs) in zip(lstms, before):
        assert lstm._cache is cache and lstm._inputs is inputs
    assert voyager._batch_tokens is tokens_before


def test_generate_prefetches_rejects_bad_chunk():
    from repro.errors import ConfigError
    trace = _batch_trace("cc-5")
    with pytest.raises(ConfigError):
        generate_prefetches(make_prefetcher("nextline"), trace, chunk=0)


def test_flatten_active_windows_layout():
    actives = [np.array([3, 5], dtype=np.int64),
               np.empty(0, dtype=np.int64),
               np.array([1], dtype=np.int64)]
    flat, starts = flatten_active_windows(actives)
    assert flat.tolist() == [3, 5, 1]
    assert starts.tolist() == [0, 2, 2, 3]
    flat, starts = flatten_active_windows([])
    assert flat.size == 0 and starts.tolist() == [0]


# -- compiled window kernel ---------------------------------------------------

_kernel = ckernel.load_kernel()
needs_kernel = pytest.mark.skipif(
    _kernel is None, reason="no C compiler available for the window kernel")


@needs_kernel
def test_ckernel_pairwise_sum_bit_identical():
    """The C pairwise summation reproduces numpy's reduce bit-for-bit
    (same blocking/unrolling recursion, strict IEEE flags)."""
    rng = np.random.default_rng(23)
    for n in (0, 1, 2, 5, 7, 8, 9, 16, 127, 128, 129, 381, 600, 4096):
        values = rng.uniform(-1e3, 1e3, size=n)
        ours = np.float64(_kernel.pairwise_sum(values))
        numpys = np.float64(np.add.reduce(values))
        assert ours.tobytes() == numpys.tobytes(), f"n={n}"


@needs_kernel
def test_window_kernel_matches_scalar_one_tick():
    """A mixed learn/no-learn window leaves winners, weights, theta and
    the interval counter bitwise equal to per-query scalar calls."""
    config = PathfinderConfig()
    encoder = PixelMatrixEncoder(config)
    rng = np.random.default_rng(29)
    kwargs = dict(n_input=config.n_input, n_neurons=20, seed=3)
    batched = DiehlCookNetwork(NetworkConfig(**kwargs), fast=True)
    scalar = DiehlCookNetwork(NetworkConfig(**kwargs), fast=True)
    histories = _random_histories(config, rng, 200)
    actives = [_sparse(encoder, d).active for d in histories]
    learns = [bool(rng.integers(0, 2)) for _ in histories]
    # Span several HEALTH_CHECK_INTERVAL boundaries in one window.
    assert len(actives) > 2 * HEALTH_CHECK_INTERVAL
    winners = batched.present_one_tick_window(_kernel, actives, learns)
    expected = [scalar.present_one_tick(None, learn=learn, active=active,
                                        binary=True).winner
                for active, learn in zip(actives, learns)]
    assert winners == expected
    assert batched.input_to_exc.w.tobytes() == scalar.input_to_exc.w.tobytes()
    assert batched.exc.theta.tobytes() == scalar.exc.theta.tobytes()
    assert batched.intervals_presented == scalar.intervals_presented
    assert batched.exc.adaptation_enabled == scalar.exc.adaptation_enabled


def test_window_falls_back_without_kernel(monkeypatch):
    """With the kernel unavailable, PATHFINDER's pass 2 runs its
    per-query loop — same prefetch file, same learned state — and
    says why, in a warning and in ``snn_kernel``."""
    trace = _batch_trace("cc-5")
    with_kernel = make_prefetcher("pathfinder")
    expected = generate_prefetches(with_kernel, trace, budget=2)
    _without_window_kernel(monkeypatch)
    fallback = make_prefetcher("pathfinder")
    with pytest.warns(EngineFallbackWarning, match="no SNN kernel"):
        requests = generate_prefetches(fallback, trace, budget=2)
    assert requests == expected
    assert fallback.snn_kernel == "fallback:no SNN kernel"
    assert (fallback.network.input_to_exc.w.tobytes()
            == with_kernel.network.input_to_exc.w.tobytes())
    assert fallback.network.exc.theta.tobytes() == \
        with_kernel.network.exc.theta.tobytes()


@needs_kernel
def test_monitor_armed_run_uses_window_kernel():
    """An armed SpikeMonitor no longer forces per-query SNN calls: the
    monitor is fed from the kernel's winners."""
    prefetcher = make_prefetcher("pathfinder")
    prefetcher.attach_observability(Observability())
    network = prefetcher.network
    window_sizes = []

    def spy(kernel, actives, learns):
        window_sizes.append(len(actives))
        return type(network).present_one_tick_window(
            network, kernel, actives, learns)

    network.present_one_tick_window = spy
    generate_prefetches(prefetcher, _batch_trace("cc-5"), budget=2)
    assert sum(window_sizes) == prefetcher.snn_queries > 0
    assert prefetcher.snn_kernel == "used"
    monitor = prefetcher.monitor
    assert monitor.intervals == prefetcher.snn_queries
    assert set(monitor.first_spike_ticks) == {0}
    assert all(counts.sum() == 1 and counts[winner] == 1
               for counts, winner in zip(monitor.spike_counts,
                                         monitor.winners))


def _poisoned_run(poison_column):
    """PATHFINDER over cc-5 in 1000-access chunks, with one weight
    column set to NaN just before the second chunk's SNN pass."""
    prefetcher = make_prefetcher("pathfinder")
    table_pass = prefetcher._table_pass
    chunks = []

    def poison_before_second_chunk(addresses, pcs):
        chunks.append(len(addresses))
        if len(chunks) == 2:
            prefetcher.network.input_to_exc.w[:, poison_column] = np.nan
        return table_pass(addresses, pcs)

    snn_pass = prefetcher._snn_pass
    repairs = []

    def record_repairs(encodings, learns):
        result = snn_pass(encodings, learns)
        repairs.append(result[2])
        return result

    prefetcher._table_pass = poison_before_second_chunk
    prefetcher._snn_pass = record_repairs
    requests = generate_prefetches(prefetcher, _batch_trace("cc-5"),
                                   budget=2, chunk=1000)
    return prefetcher, requests, repairs


@needs_kernel
def test_kernel_handback_matches_per_query_loop(monkeypatch):
    """Non-finite weights make the kernel hand back at its next health
    scan; the repair and the label erasure land at the same query as
    in per-query calls, and the loop finishes the window."""
    trained = make_prefetcher("pathfinder")
    generate_prefetches(trained, _batch_trace("cc-5"), budget=2)
    # A neuron holding labels, so erasing them changes predictions.
    column = max(range(trained.config.n_neurons),
                 key=lambda n: len(trained.inference_table._slots[n]))
    kernel_pf, kernel_file, kernel_repairs = _poisoned_run(column)
    assert kernel_pf.snn_kernel == "used"
    assert kernel_pf.neuron_repairs == 1
    _without_window_kernel(monkeypatch)
    with pytest.warns(EngineFallbackWarning, match="no SNN kernel"):
        loop_pf, loop_file, loop_repairs = _poisoned_run(column)
    # Same query of the same chunk repaired the same neuron.
    assert kernel_repairs == loop_repairs
    assert [len(chunk) for chunk in kernel_repairs] == [0, 1, 0]
    assert kernel_file == loop_file
    assert loop_pf.neuron_repairs == 1
    assert (kernel_pf.inference_table.labels_erased
            == loop_pf.inference_table.labels_erased)
    assert (kernel_pf.network.input_to_exc.w.tobytes()
            == loop_pf.network.input_to_exc.w.tobytes())
    assert (kernel_pf.network.intervals_presented
            == loop_pf.network.intervals_presented)


@pytest.mark.parametrize("overrides, reason", [
    (dict(one_tick=False), "multi-tick config"),
    (dict(fast_snn=False), "fast_snn off"),
])
def test_per_query_configs_name_their_fallback(overrides, reason):
    trace = make_trace("cc-5", 300, seed=5)
    prefetcher = PathfinderPrefetcher(PathfinderConfig(**overrides))
    with pytest.warns(EngineFallbackWarning, match=reason):
        generate_prefetches(prefetcher, trace, budget=2)
    assert prefetcher.snn_kernel == f"fallback:{reason}"


def test_run_prefetcher_records_snn_kernel(monkeypatch):
    """``EvalRow.extras["snn_kernel"]`` names what PATHFINDER's pass 2
    ran, through the guard and ensemble wrappers; rows without a
    PATHFINDER carry no key."""
    from repro.harness.runner import default_hierarchy, run_prefetcher
    from repro.sim import simulate

    trace = make_trace("cc-5", 600, seed=5)
    hierarchy = default_hierarchy()
    baseline = simulate(trace, (), config=hierarchy, prefetcher_name="none")
    used = "used" if _kernel is not None else "fallback:no SNN kernel"
    for name in ("pathfinder", "pathfinder+nl+sisb", "adaptive-ensemble"):
        row = run_prefetcher(trace, make_prefetcher(name), baseline,
                             hierarchy)
        assert row.extras["snn_kernel"] == used
    row = run_prefetcher(trace, make_prefetcher("nextline"), baseline,
                         hierarchy)
    assert "snn_kernel" not in row.extras
    _without_window_kernel(monkeypatch)
    with pytest.warns(EngineFallbackWarning, match="no SNN kernel"):
        row = run_prefetcher(trace, make_prefetcher("pathfinder+nl+sisb"),
                             baseline, hierarchy)
    assert row.extras["snn_kernel"] == "fallback:no SNN kernel"


def test_no_ckernel_env_names_the_fallback(tmp_path):
    """``REPRO_NO_CKERNEL=1`` (read once per process) makes a
    PATHFINDER run say that its SNN queries ran one at a time."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, REPRO_NO_CKERNEL="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "run", "cc-5", "pathfinder",
         "--loads", "400", "--no-ledger"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "EngineFallbackWarning" in proc.stderr
    assert "no SNN kernel" in proc.stderr
    assert "fallback:no SNN kernel" in proc.stdout
