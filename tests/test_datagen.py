import copy
import filecmp
import itertools
import math
from dataclasses import asdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kforrelation import datagen, forrelation, qstate
from kforrelation.datagen import (
    NEGATIVE_PHI_MAX,
    POSITIVE_PHI_MIN,
    DatasetFormatError,
    DatasetSpec,
    GenerationError,
    GenerationReport,
    LabeledSample,
    generate_dataset,
    make_negative_sample,
    make_positive_sample,
    read_dataset,
    sample_random_instance,
    write_dataset,
)
from kforrelation.forrelation import (
    components,
    decode,
    encode,
    indexed_instance,
    phi_bruteforce,
    phi_circuit,
    phi_circuits,
    restricted_functions,
    simulate_instance,
)
from kforrelation.qstate import CapacityError


# ---------------------------------------------------------------------------
# engineered samples


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_positive_sample_fixes_zero(n, k):
    s = make_positive_sample(n, k, 1, 2, n)
    assert s.label == 1 and s.phi == 1.0
    p = simulate_instance(decode(s.sample)).probabilities()
    assert abs(p[0] - 1.0) <= 1e-12


@pytest.mark.parametrize("n", range(3, 11))
@pytest.mark.parametrize("k", [3, 5, 7, 9])
def test_negative_sample_lands_on_target(n, k):
    j = min(3, n)
    s = make_negative_sample(n, k, j, (1, 2, n))
    assert s.label == -1 and s.phi == 0.0
    p = simulate_instance(decode(s.sample)).probabilities()
    assert abs(p[1 << (j - 1)] - 1.0) <= 1e-12
    assert p[0] <= 1e-12


def test_positive_sample_encoding_layout():
    s = make_positive_sample(3, 3, 1, 2, 3)
    assert s.sample.bits == (1, 1, 1, 0, 0, 0, 1, 1, 1)


def test_negative_sample_encoding_layout():
    s = make_negative_sample(3, 3, 1, (1, 2, 3))
    assert s.sample.bits == (1, 0, 0, 1, 1, 1, 0, 0, 0)


def test_positive_sample_validation():
    with pytest.raises(ValueError):
        make_positive_sample(2, 3, 1, 2, 3)   # no 3-bit product at n=2
    with pytest.raises(ValueError):
        make_positive_sample(4, 4, 1, 2, 3)   # even k
    with pytest.raises(ValueError):
        make_positive_sample(4, 3, 1, 1, 2)   # repeated index


def test_negative_sample_validation():
    with pytest.raises(ValueError):
        make_negative_sample(4, 3, 5, (1, 2, 3))
    with pytest.raises(ValueError):
        make_negative_sample(4, 3, 1, (1, 2))
    with pytest.raises(ValueError):
        make_negative_sample(4, 2, 1, (1, 2, 3))


def test_labeled_sample_invariants():
    good = make_positive_sample(3, 3, 1, 2, 3)
    with pytest.raises(ValueError):
        LabeledSample(good.sample, 1, 0.5, "constructive")   # phi below 3/5
    with pytest.raises(ValueError):
        LabeledSample(good.sample, -1, 0.5, "constructive")  # |phi| above 1/100
    with pytest.raises(ValueError):
        LabeledSample(good.sample, 0, 1.0, "constructive")
    with pytest.raises(ValueError):
        LabeledSample(good.sample, 1, 1.0, "made_up")


# ---------------------------------------------------------------------------
# random instances


def test_function_support_size_n3():
    assert len(restricted_functions(3)) == 8  # 1 + 3 + 3 + 1


def test_random_instance_determinism():
    a = sample_random_instance(4, 5, np.random.default_rng(9))
    b = sample_random_instance(4, 5, np.random.default_rng(9))
    assert a == b


def test_random_instance_promise_complete():
    rng = np.random.default_rng(0)
    for _ in range(200):
        inst = sample_random_instance(3, 3, rng)
        assert inst.promise_complete_form


def test_sampler_returns_the_first_complete_tuple_of_the_stream():
    # However many incomplete k-tuples come first, the draw is the next
    # complete one, index for index, and nothing past it is consumed.
    funcs = restricted_functions(3)
    triple = next(i for i, f in enumerate(funcs) if len(f.bits) == 3)
    complete = (1, triple, 2)
    stream = iter([0] * (100 * 3) + list(complete) + [triple])

    class ScriptedRng:
        def integers(self, high):
            assert high == len(funcs)
            return next(stream)

    inst = sample_random_instance(3, 3, ScriptedRng())
    assert inst.functions == tuple(funcs[i] for i in complete)
    assert next(stream) == triple


class RecordingRng:
    """A seeded generator that records the size of each integers call."""

    def __init__(self, seed):
        self.rng, self.sizes = np.random.default_rng(seed), []

    def integers(self, high, size=None):
        self.sizes.append(size)
        return self.rng.integers(high, size=size)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 3), (6, 7), (12, 5)]), st.integers(0, 2**32 - 1),
       st.lists(st.integers(1, datagen.CHUNK_MAX), min_size=1, max_size=4))
def test_chunk_draws_are_the_scalar_draw_stream(shape, seed, sizes):
    # Chunk after chunk, shortfall re-draws included, the rows are the
    # tuples successive sample_random_instance calls return, and the
    # generator ends where theirs does.  At (3, 3) about two tuples in
    # three are incomplete, so nearly every chunk draws its shortfall again.
    n, k = shape
    chunked, scalar = RecordingRng(seed), np.random.default_rng(seed)
    for size in sizes:
        draws = datagen._draw_chunk(n, k, size, chunked)
        assert draws.shape == (size, k)
        assert [indexed_instance(n, row) for row in draws.tolist()] == \
            [sample_random_instance(n, k, scalar) for _ in range(size)]
        assert chunked.rng.bit_generator.state == scalar.bit_generator.state
    assert all(size[1] == k for size in chunked.sizes)


def test_chunk_draw_redraws_only_the_shortfall():
    # One (64, 3) draw, then one draw per round of as many rows as are
    # still missing, so the sizes never grow.
    rng = RecordingRng(0)
    draws = datagen._draw_chunk(3, 3, 64, rng)
    assert len(draws) == 64 and len(rng.sizes) > 2
    assert rng.sizes[0] == (64, 3) and all(a[0] >= b[0] for a, b in zip(rng.sizes, rng.sizes[1:]))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 3), (6, 7), (12, 5)]), st.integers(0, 2**32 - 1), st.integers(0, 12),
       st.integers(0, 12))
def test_gen_chunks_are_the_scalar_draw_stream(shape, seed, pos, neg):
    # The draws generate_dataset passes to phi_draws, chunk after chunk,
    # are the successive sample_random_instance draws of its seed.
    n, k = shape
    chunks = []
    real = datagen.phi_draws

    def spy(n, draws):
        chunks.append(draws.copy())
        return real(n, draws)

    with mock.patch.object(datagen, "phi_draws", spy):
        _, report = generate_dataset(DatasetSpec(n, k, pos, neg, seed))
    assert bool(chunks) == bool(pos + neg)
    drawn = np.concatenate(chunks).tolist() if chunks else []
    assert len(drawn) >= report.tries
    rng = np.random.default_rng(seed)
    assert [indexed_instance(n, row) for row in drawn] == [sample_random_instance(n, k, rng) for _ in drawn]


def test_dense_gen_builds_an_instance_only_for_an_accepted_draw(monkeypatch):
    built = []
    post_init = forrelation.ForrelationInstance.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(forrelation.ForrelationInstance, "__post_init__", counting)
    samples, report = generate_dataset(DatasetSpec(6, 7, 25, 25, seed=3))
    assert report.constructive_pos == 0 and report.tries > 4 * len(samples)
    assert [encode(inst) for inst in built] == [s.sample for s in samples]


def test_random_instance_needs_n3():
    with pytest.raises(ValueError):
        sample_random_instance(2, 3, np.random.default_rng(0))


@pytest.mark.parametrize("k", [0, -1])
def test_random_instance_needs_a_function(k):
    with pytest.raises(ValueError, match="at least one function"):
        sample_random_instance(3, k, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# dataset generation


def test_generate_dataset_example_spec():
    spec = DatasetSpec(n=3, k=3, count_pos=5, count_neg=5, seed=7)
    samples, report = generate_dataset(spec)
    assert len(samples) == 10
    assert sum(s.label == 1 for s in samples) == 5
    assert sum(s.label == -1 for s in samples) == 5
    assert report.tries >= 10
    for s in samples:
        phi = phi_circuit(decode(s.sample))
        assert abs(phi - s.phi) <= 1e-10
        if s.label == 1:
            assert phi >= POSITIVE_PHI_MIN
        else:
            assert abs(phi) <= NEGATIVE_PHI_MAX


def _shift_ulps(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@pytest.mark.parametrize("ulps", [2, -2])
def test_phi_bins_ignore_ulp_residue(ulps):
    # Phi = 0 and Phi = 0.5 are bin edges and both occur at this spec. Phi is
    # exact, so the bins file each draw by its exact value (phi_bruteforce
    # over the same seeded draws) and carry no rounding residue. A residue
    # would show: above an edge it keeps the value in its bin, below an edge
    # it moves the value down one bin.
    spec = DatasetSpec(4, 3, 5, 5, seed=1)
    _, report = generate_dataset(spec)
    rng = np.random.default_rng(spec.seed)
    exact = [phi_bruteforce(sample_random_instance(spec.n, spec.k, rng)) for _ in range(report.tries)]
    assert 0.0 in exact and 0.5 in exact

    def bins(phis):
        return tuple(np.histogram(phis, bins=20, range=(-1.0, 1.0))[0])

    assert report.phi_bins == bins(exact)
    assert (bins([_shift_ulps(phi, ulps) for phi in exact]) == report.phi_bins) == (ulps > 0)


def draw_by_draw(spec):
    """generate_dataset as one draw, one phi_circuit and one accept step at
    a time: the reference the chunked loop must reproduce."""
    if (spec.count_pos or spec.count_neg) and spec.n < 3:
        raise GenerationError(f"promise-complete instances need n >= 3, got n = {spec.n}")
    rng = np.random.default_rng(spec.seed)
    samples, phis = [], []
    need_pos, need_neg = spec.count_pos, spec.count_neg
    accepted_pos = accepted_neg = 0
    while (need_pos > 0 or need_neg > 0) and len(phis) < spec.max_rejection_tries:
        inst = sample_random_instance(spec.n, spec.k, rng)
        phi = phi_circuit(inst)
        phis.append(phi)
        if phi >= POSITIVE_PHI_MIN and need_pos > 0:
            samples.append(LabeledSample(encode(inst), 1, phi, "rejection_sampled"))
            accepted_pos, need_pos = accepted_pos + 1, need_pos - 1
        elif abs(phi) <= NEGATIVE_PHI_MAX and need_neg > 0:
            samples.append(LabeledSample(encode(inst), -1, phi, "rejection_sampled"))
            accepted_neg, need_neg = accepted_neg + 1, need_neg - 1
    triples = list(itertools.combinations(range(1, spec.n + 1), 3))
    if need_pos > len(triples):
        raise GenerationError(
            f"cannot fill {need_pos} positives: only {len(triples)} distinct constructive triples at n = {spec.n}")
    samples += [make_positive_sample(spec.n, spec.k, *t) for t in triples[:need_pos]]
    if need_neg > 0:
        raise GenerationError(
            f"rejection sampling exhausted {spec.max_rejection_tries} tries with {need_neg} negatives missing")
    tries = len(phis)
    report = GenerationReport(
        tries, accepted_pos, accepted_neg, need_pos,
        accepted_pos / tries if tries else 0.0, accepted_neg / tries if tries else 0.0,
        min(phis) if phis else None, max(phis) if phis else None, float(np.mean(phis)) if phis else None,
        tuple(int(b) for b in np.histogram(phis, bins=20, range=(-1.0, 1.0))[0]))
    return samples, report


def outcome(fn, spec):
    try:
        return fn(spec)
    except GenerationError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(st.builds(DatasetSpec, n=st.integers(2, 7), k=st.sampled_from([3, 5, 7]), count_pos=st.integers(0, 12),
                 count_neg=st.integers(0, 12), seed=st.integers(0, 2**32 - 1),
                 max_rejection_tries=st.integers(0, 150)))
@example(DatasetSpec(3, 3, 0, 0, seed=1))                                # zero counts: no draw
@example(DatasetSpec(6, 7, 25, 25, seed=3, max_rejection_tries=37))     # budget ends mid-chunk, too few triples
@example(DatasetSpec(6, 7, 25, 25, seed=3, max_rejection_tries=200))    # budget ends mid-chunk, positives topped up
@example(DatasetSpec(4, 3, 0, 9, seed=5, max_rejection_tries=20))       # negatives missing
@example(DatasetSpec(2, 3, 1, 0, seed=5))                               # n too small
def test_generate_dataset_equals_draw_by_draw_loop(spec):
    chunks = []
    real = datagen.phi_draws

    def spy(n, draws):
        chunks.append(len(draws))
        return real(n, draws)

    with mock.patch.object(datagen, "phi_draws", spy):
        got = outcome(generate_dataset, spec)
    assert got == outcome(draw_by_draw, spec)
    # Every chunk, dense or not, goes through phi_draws, so the chunk
    # checks below see every chunk the loop draws: there are chunks exactly
    # when the loop makes a try.
    tried = spec.n >= 3 and spec.max_rejection_tries > 0 and spec.count_pos + spec.count_neg > 0
    assert bool(chunks) == tried
    # Chunks hold CHUNK_MIN to CHUNK_MAX draws, fewer only where the budget ends.
    assert sum(chunks) <= spec.max_rejection_tries
    assert all(datagen.CHUNK_MIN <= size <= datagen.CHUNK_MAX for size in chunks[:-1])
    if chunks:
        assert chunks[-1] <= datagen.CHUNK_MAX
        assert chunks[-1] >= datagen.CHUNK_MIN or sum(chunks) == spec.max_rejection_tries
        if not isinstance(got, str):
            assert got[1].tries > sum(chunks[:-1])   # no chunk is drawn past the stop


def spied_chunks(monkeypatch):
    """The instances of each chunk of draws generate_dataset passes to phi_draws."""
    chunks = []
    real = datagen.phi_draws

    def spy(n, draws):
        chunks.append([indexed_instance(n, row) for row in draws.tolist()])
        return real(n, draws)

    monkeypatch.setattr(datagen, "phi_draws", spy)
    return chunks


def test_over_cap_draw_past_the_stop_point_does_not_surface(monkeypatch):
    # The quota is met at try 6 of a 16-draw chunk whose draw 7 has a
    # 7-qubit component, which the runner simulates (narrower ones are read
    # off end tables): above a cap of 6, the batch raises CapacityError,
    # while the draw-by-draw loop never simulates that draw.
    spec = DatasetSpec(8, 3, 2, 1, seed=9)
    want = generate_dataset(spec)
    chunks = spied_chunks(monkeypatch)
    monkeypatch.setattr(qstate, "MAX_QUBITS", 6)
    assert generate_dataset(spec) == want
    assert want[1].tries == 6 and len(chunks) == 1
    widest = [max(map(len, components(inst))) for inst in chunks[0]]
    assert max(widest[:6]) <= 6 < widest[6]
    with pytest.raises(CapacityError, match=rf"1 to 6 qubits, got {widest[6]}$"):
        phi_circuits(chunks[0])
    bigger = DatasetSpec(8, 3, 2, 2, seed=9)   # one more negative: the loop reaches an over-cap draw
    with pytest.raises(CapacityError):
        generate_dataset(bigger)


def test_phi_bound_failure_past_the_stop_point_does_not_surface(monkeypatch):
    # With the |Phi| <= 1 check tightened to |Phi| <= 0.7, a draw after the
    # stop point fails it; the dataset must still be the untouched one.
    spec = DatasetSpec(4, 3, 0, 3, seed=1)
    want = generate_dataset(spec)
    chunks = spied_chunks(monkeypatch)
    monkeypatch.setattr(forrelation, "PHI_BOUND_TOL", -0.3)
    assert generate_dataset(spec) == want
    with pytest.raises(RuntimeError, match="exceeds 1"):
        phi_circuits(chunks[0])
    monkeypatch.undo()
    phis = [abs(phi_bruteforce(inst)) for inst in chunks[0]]
    assert want[1].tries == 5 and max(phis[:5]) <= 0.7 < max(phis[5:])


def test_generate_dataset_empty():
    samples, report = generate_dataset(DatasetSpec(n=3, k=3, count_pos=0, count_neg=0, seed=1))
    assert samples == [] and report.tries == 0


def test_generate_dataset_promise_gap():
    samples, _ = generate_dataset(DatasetSpec(n=4, k=5, count_pos=6, count_neg=6, seed=3))
    for s in samples:
        assert not (NEGATIVE_PHI_MAX < s.phi < POSITIVE_PHI_MIN)
        assert not (s.phi < -NEGATIVE_PHI_MAX)


def test_generate_dataset_constructive_fallback():
    # zero rejection budget forces the constructive fill for positives
    spec = DatasetSpec(n=4, k=3, count_pos=3, count_neg=0, seed=5, max_rejection_tries=0)
    samples, report = generate_dataset(spec)
    assert len(samples) == 3
    assert report.constructive_pos == 3
    assert all(s.provenance == "constructive" for s in samples)
    # distinct triples -> distinct samples
    assert len({s.sample.bits for s in samples}) == 3


def test_generate_dataset_errors():
    with pytest.raises(GenerationError):
        generate_dataset(DatasetSpec(n=3, k=3, count_pos=2, count_neg=0, seed=5, max_rejection_tries=0))
    with pytest.raises(GenerationError):
        generate_dataset(DatasetSpec(n=3, k=3, count_pos=0, count_neg=4, seed=5, max_rejection_tries=0))
    with pytest.raises(GenerationError):
        generate_dataset(DatasetSpec(n=2, k=3, count_pos=1, count_neg=1, seed=5))


def test_dataset_spec_validation():
    with pytest.raises(ValueError):
        DatasetSpec(n=3, k=4, count_pos=1, count_neg=1, seed=0)
    with pytest.raises(ValueError):
        DatasetSpec(n=3, k=1, count_pos=1, count_neg=1, seed=0)
    with pytest.raises(ValueError):
        DatasetSpec(n=3, k=3, count_pos=-1, count_neg=1, seed=0)


# ---------------------------------------------------------------------------
# serialization


def test_write_read_roundtrip(tmp_path):
    spec = DatasetSpec(n=3, k=5, count_pos=4, count_neg=4, seed=21)
    samples, _ = generate_dataset(spec)
    path = tmp_path / "d.jsonl"
    write_dataset(spec, samples, str(path))
    spec2, samples2 = read_dataset(str(path))
    assert spec2 == spec
    assert samples2 == samples


def test_bulk_value_types_are_slotted_and_keep_their_value_semantics(tmp_path):
    # No per-object __dict__; equality, hashing, asdict and the JSONL round
    # trip are those of the plain frozen dataclasses.
    spec = DatasetSpec(n=4, k=3, count_pos=2, count_neg=2, seed=5)
    samples, _ = generate_dataset(spec)
    inst = decode(samples[0].sample)
    values = [spec, samples[0], samples[0].sample, inst, inst.functions[0]]
    assert [type(v).__name__ for v in values] == [
        "DatasetSpec", "LabeledSample", "EncodedSample", "ForrelationInstance", "BooleanFunctionSpec"]
    for value in values:
        assert not hasattr(value, "__dict__")
        twin = copy.deepcopy(value)
        assert twin == value and hash(twin) == hash(value) and twin is not value
    assert asdict(spec) == {"n": 4, "k": 3, "count_pos": 2, "count_neg": 2, "seed": 5, "max_rejection_tries": 10000}
    assert asdict(inst.functions[0]) == {"bits": inst.functions[0].bits, "mask": inst.functions[0].mask}
    assert decode(encode(inst)) == inst and inst.functions[0].mask == sum(1 << (b - 1) for b in inst.functions[0].bits)
    path = tmp_path / "d.jsonl"
    write_dataset(spec, samples, str(path))
    assert read_dataset(str(path)) == (spec, samples)


def test_write_determinism(tmp_path):
    spec = DatasetSpec(n=3, k=3, count_pos=3, count_neg=3, seed=13)
    for name in ("a.jsonl", "b.jsonl"):
        samples, _ = generate_dataset(spec)
        write_dataset(spec, samples, str(tmp_path / name))
    assert filecmp.cmp(tmp_path / "a.jsonl", tmp_path / "b.jsonl", shallow=False)


def test_read_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    spec, samples = read_dataset(str(path))
    assert spec is None and samples == []


def test_read_reports_bad_block_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"n": 4, "k": 3, "count_pos": 0, "count_neg": 0, "seed": 0, "max_rejection_tries": 1}\n'
        '{"n": 4, "k": 1, "bits": "1111", "label": 1, "phi": "1", "provenance": "constructive"}\n'
    )
    with pytest.raises(DatasetFormatError) as err:
        read_dataset(str(path))
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)


def test_read_reports_bad_json_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("this is not json\n")
    with pytest.raises(DatasetFormatError) as err:
        read_dataset(str(path))
    assert err.value.line_number == 1


def test_read_rejects_inconsistent_label(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 3, "k": 1, "bits": "111", "label": -1, "phi": "1", "provenance": "constructive"}\n')
    with pytest.raises(DatasetFormatError):
        read_dataset(str(path))


def test_read_rejects_missing_field(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"n": 3, "k": 1, "bits": "111", "label": 1, "phi": "1"}\n')
    with pytest.raises(DatasetFormatError) as err:
        read_dataset(str(path))
    assert err.value.line_number == 1


def test_read_rejects_header_after_records(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"n": 3, "k": 3, "bits": "111000111", "label": 1, "phi": "1", "provenance": "constructive"}\n'
        '{"n": 3, "k": 3, "count_pos": 1, "count_neg": 0, "seed": 0, "max_rejection_tries": 1}\n'
    )
    with pytest.raises(DatasetFormatError) as err:
        read_dataset(str(path))
    assert err.value.line_number == 2


def test_phi_serialized_at_full_precision(tmp_path):
    spec = DatasetSpec(n=3, k=3, count_pos=2, count_neg=2, seed=17)
    samples, _ = generate_dataset(spec)
    path = tmp_path / "d.jsonl"
    write_dataset(spec, samples, str(path))
    _, back = read_dataset(str(path))
    for a, b in zip(samples, back):
        assert a.phi == b.phi  # 17 significant digits round-trips doubles


HEADER_N4 = '{"n": 4, "k": 3, "count_pos": 1, "count_neg": 1, "seed": 0, "max_rejection_tries": 1}\n'
RECORD_N4 = '{"n": 4, "k": 3, "bits": "111000000111", "label": 1, "phi": "1", "provenance": "constructive"}\n'
RECORD_N3 = '{"n": 3, "k": 3, "bits": "111000111", "label": 1, "phi": "1", "provenance": "constructive"}\n'
RECORD_K5 = '{"n": 4, "k": 5, "bits": "11100000011100000000", "label": 1, "phi": "1", "provenance": "constructive"}\n'


@pytest.mark.parametrize("lines,bad_line", [
    ([HEADER_N4, RECORD_N4, RECORD_N3], 3),   # n differs from the header
    ([HEADER_N4, RECORD_K5], 2),              # k differs from the header
    ([RECORD_N4, RECORD_N4, RECORD_N3], 3),   # no header: n differs from the first record
    ([RECORD_N3, RECORD_N4], 2),
])
def test_read_rejects_mixed_shapes(tmp_path, lines, bad_line):
    path = tmp_path / "mixed.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(DatasetFormatError) as err:
        read_dataset(str(path))
    assert err.value.line_number == bad_line
    assert "(n, k)" in str(err.value)


HEADER_N3 = '{"n": 3, "k": 3, "count_pos": 0, "count_neg": 1, "seed": 0, "max_rejection_tries": 1}\n'
RECORD_NEG = '{"n": 3, "k": 3, "bits": "100010001", "label": -1, "phi": "0.0", "provenance": "rejection_sampled"}\n'


@pytest.mark.parametrize("lines,bad_line,field", [
    ([HEADER_N3, RECORD_NEG.replace('"n": 3', '"n": 3.9')], 2, "n"),
    ([HEADER_N3, RECORD_NEG.replace('"label": -1', '"label": -1.7')], 2, "label"),
    ([HEADER_N3, RECORD_NEG.replace('"k": 3', '"k": true')], 2, "k"),
    ([HEADER_N3, RECORD_NEG.replace('"n": 3', '"n": "3"')], 2, "n"),
    ([RECORD_NEG.replace('"n": 3', '"n": 3.0')], 1, "n"),
    ([HEADER_N3, RECORD_NEG.replace('"bits": "100010001"', '"bits": ["1","0","0","0","1","0","0","0","1"]')], 2, "bits"),
    ([HEADER_N3.replace('"n": 3', '"n": 4.0')], 1, "n"),
    ([HEADER_N3.replace('"seed": 0', '"seed": false')], 1, "seed"),
    ([HEADER_N3.replace('"count_neg": 1', '"count_neg": "1"')], 1, "count_neg"),
    # Integers below 1, with n*k bits each, so only the shape check refuses them.
    ([RECORD_NEG.replace('"n": 3, "k": 3', '"n": -1, "k": -1').replace('"100010001"', '"1"')], 1, "n"),
    ([RECORD_NEG.replace('"n": 3', '"n": 0').replace('"100010001"', '""')], 1, "n"),
    ([RECORD_NEG.replace('"k": 3', '"k": 0').replace('"100010001"', '""')], 1, "k"),
])
def test_read_rejects_non_integer_fields(tmp_path, lines, bad_line, field):
    path = tmp_path / "typed.jsonl"
    path.write_text("".join(lines))
    with pytest.raises(DatasetFormatError) as err:
        read_dataset(str(path))
    assert err.value.line_number == bad_line
    assert f"line {bad_line}: {field} must be" in str(err.value)


@pytest.mark.parametrize("record,phi", [(RECORD_N3, '"phi": "1"'), (RECORD_NEG, '"phi": "0.0"')],
                         ids=["positive", "negative"])
@pytest.mark.parametrize("bad", ["true", "1", "null", '"inf"', '"nan"', '"1.5"'])
def test_read_rejects_phi_that_is_not_a_string_in_range(tmp_path, record, phi, bad):
    path = tmp_path / "phi.jsonl"
    path.write_text(HEADER_N3 + record + record.replace(phi, f'"phi": {bad}'))
    with pytest.raises(DatasetFormatError) as err:
        read_dataset(str(path))
    assert err.value.line_number == 3
    assert "line 3: phi must be a string holding a number in [-1, 1]" in str(err.value)


def test_read_header_only_file(tmp_path):
    path = tmp_path / "header.jsonl"
    path.write_text(HEADER_N4)
    spec, samples = read_dataset(str(path))
    assert spec == DatasetSpec(n=4, k=3, count_pos=1, count_neg=1, seed=0, max_rejection_tries=1)
    assert samples == []
