"""Tests of the benchmark's own machinery (generator, gate, tracer, arithmetic)."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import laminal  # noqa: E402
import laminal.cli  # noqa: E402,F401
from lambench.arith import count_free_coarsenings, integer_rows, parse_text  # noqa: E402
from lambench.generator import (  # noqa: E402
    ContentRegistry,
    DuplicateInput,
    InputStream,
    Item,
    example1_text,
)
from lambench.kernel import normalise  # noqa: E402
from lambench.measure import Runner, tail_percentile  # noqa: E402
from lambench.tracer import SPANS, Tracer  # noqa: E402


def _hash_after(workload, seed, n):
    stream = InputStream(workload, seed)
    for _ in range(n):
        next(stream)
    return stream.input_hash()


@pytest.mark.parametrize("workload", ["search-mixture", "lattice-dense", "audit-corpus"])
def test_generator_is_deterministic_in_the_seed(workload):
    assert _hash_after(workload, 3, 6) == _hash_after(workload, 3, 6)
    assert _hash_after(workload, 3, 6) != _hash_after(workload, 4, 6)


def test_registry_rejects_repeated_content_under_another_name():
    registry = ContentRegistry()
    text = example1_text(Fraction(1, 1009), "first")
    registry.add(text)
    assert not registry.is_fresh(example1_text(Fraction(1, 1009), "second"))
    with pytest.raises(DuplicateInput):
        registry.add(example1_text(Fraction(1, 1009), "second"))
    registry.add(example1_text(Fraction(2, 1009), "third"))


def test_streams_never_repeat_model_content():
    stream = InputStream("audit-corpus", 1)
    items = [next(stream) for _ in range(3)]
    keys = [t.split("\n", 1)[1] for item in items for t in item.texts]
    assert len(keys) == len(set(keys))
    assert all(item.planted for item in items)


def test_tail_percentile_leaves_ten_items_beyond():
    assert tail_percentile(40) == 75
    assert tail_percentile(50) == 75
    assert tail_percentile(100) == 90
    assert tail_percentile(200) == 95
    assert tail_percentile(1000) == 99
    with pytest.raises(ValueError):
        tail_percentile(39)


def test_normalisation_rescales_by_the_adjacent_kernel_mean():
    assert normalise(2.0, 0.01, 0.03, c_ref=0.02) == pytest.approx(2.0)
    assert normalise(1.0, 0.04, 0.04, c_ref=0.02) == pytest.approx(0.5)
    assert normalise(1.0, 0.01, 0.01, c_ref=0.02) == pytest.approx(2.0)


def test_crossing_count_matches_example1():
    _, _, rows = parse_text(example1_text(Fraction(1, 100), "e"))
    irows = integer_rows(rows)
    assert count_free_coarsenings(irows, [[j] for j in range(7)]) == 25


@pytest.fixture()
def example1_item():
    return Item(0, "example1", (example1_text(Fraction(3, 1009), "example1_0"),))


def test_digest_gate_fails_on_a_tampered_report(tmp_path, example1_item):
    runner = Runner(laminal, "lattice-dense", 1, tmp_path)
    _, (code, stdout) = runner.execute(example1_item, runner.prepare(example1_item))
    digest, problems = runner.check(example1_item, (code, stdout))
    assert problems == []

    runner.reference = [digest]
    assert runner.check(example1_item, (code, stdout)) == (digest, [])
    tampered = stdout.replace("1,3|2,4|5,6|7", "1,4|2,3|5,6|7")
    assert tampered != stdout
    _, problems = runner.check(example1_item, (code, tampered))
    assert "answer digest differs from the recorded reference" in problems
    assert any("not parameter-free" in p for p in problems)
    assert any("example1 maximal" in p for p in problems)
    _, problems = runner.check(example1_item, (3, stdout))
    assert "exit code 3" in problems


def _bindings():
    return {(name, attr): value for name, mod in sys.modules.items()
            if name == "laminal" or name.startswith("laminal.")
            for attr, value in vars(mod).items() if callable(value)}


def test_tracer_records_spans_and_restores_every_binding():
    before = _bindings()
    render = laminal.report.ReportDocument.render
    tracer = Tracer(SPANS + ("model.no_such_function",))
    model = laminal.example2_model()
    with tracer:
        assert laminal.ancillary.enumerate_partitions is not before[("laminal.ancillary", "enumerate_partitions")]
        assert laminal.classify is laminal.ancillary.classify
        laminal.classify(model)  # outside an item: passes through, no spans
        assert tracer.calls() == 0
        tracer.item = 0
        laminal.classify(laminal.example1_model(Fraction(1, 1009)))
        tracer.item = -1
    assert tracer.absent == ["model.no_such_function"]
    assert tracer.calls() > 0
    # within=None: gamma0's laminal reads the enumeration classify already made
    assert tracer.counts["enumerated"] == 877
    names = {tracer.names[i] for i in tracer.name}
    assert {"ancillary.classify", "partitions.enumerate_partitions", "ancillary.gamma0"} <= names
    assert all(s <= e for s, e in zip(tracer.start, tracer.end))
    assert _bindings() == before
    assert laminal.report.ReportDocument.render is render
