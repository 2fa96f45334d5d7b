import filecmp
import math

import numpy as np
import pytest

from kforrelation import datagen
from kforrelation.datagen import (
    NEGATIVE_PHI_MAX,
    POSITIVE_PHI_MIN,
    DatasetFormatError,
    DatasetSpec,
    GenerationError,
    LabeledSample,
    generate_dataset,
    make_negative_sample,
    make_positive_sample,
    read_dataset,
    sample_random_instance,
    write_dataset,
)
from kforrelation.forrelation import decode, phi_circuit, restricted_functions, simulate_instance


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


def test_random_instance_needs_n3():
    with pytest.raises(ValueError):
        sample_random_instance(2, 3, np.random.default_rng(0))


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
def test_phi_bins_ignore_ulp_residue(monkeypatch, ulps):
    # Phi = 0 and Phi = 0.5 are bin edges and both occur at this spec.
    spec = DatasetSpec(8, 3, 10, 10, seed=11)
    _, report = generate_dataset(spec)
    assert report.phi_bins[10] and report.phi_bins[15]
    monkeypatch.setattr(datagen, "phi_circuit", lambda inst: _shift_ulps(phi_circuit(inst), ulps))
    _, shifted = generate_dataset(spec)
    assert shifted.tries == report.tries
    assert shifted.phi_bins == report.phi_bins


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
