import math
import re
from fractions import Fraction as F

import pytest

import laminal as L
from laminal import cli

from conftest import bp
from test_differential import MODELS


class TestBuildModel:
    def test_example2_table_is_valid(self):
        m = L.FiniteModel(
            ("a", "b"), ("1", "2", "3", "4"),
            [[F(1, 6), F(1, 6), F(2, 6), F(2, 6)],
             [F(1, 12), F(3, 12), F(5, 12), F(3, 12)]],
        )
        assert m.n_thetas == 2 and m.n_samples == 4

    def test_trivial_single_point(self):
        m = L.FiniteModel(("t",), ("x",), [[1]])
        assert m.probs == ((F(1),),)

    def test_row_sum_error(self):
        with pytest.raises(L.RowSumError, match="^row b sums to 2/3, not 1$"):
            L.FiniteModel(("a", "b"), ("1", "2"),
                          [[F(1, 2), F(1, 2)], [F(1, 3), F(1, 3)]])
        with pytest.raises(L.RowSumError, match="^row a sums to 5/4, not 1$"):
            L.FiniteModel(("a",), ("1", "2"), [[F(3, 4), F(1, 2)]])

    def test_negative_probability(self):
        with pytest.raises(L.NegativeProbability, match="^negative probability under a$"):
            L.FiniteModel(("a",), ("1", "2"), [[F(3, 2), F(-1, 2)]])

    def test_dead_sample_point(self):
        with pytest.raises(L.DeadSamplePoint,
                           match="^sample point 3 has probability 0 everywhere$"):
            L.FiniteModel(("a", "b"), ("1", "2", "3"),
                          [[F(1, 2), F(1, 2), 0], [F(1, 4), F(3, 4), 0]])

    def test_duplicate_labels(self):
        with pytest.raises(L.DuplicateLabel):
            L.FiniteModel(("a", "a"), ("1", "2"),
                          [[F(1, 2), F(1, 2)], [F(1, 2), F(1, 2)]])
        with pytest.raises(L.DuplicateLabel):
            L.FiniteModel(("a",), ("1", "1"), [[F(1, 2), F(1, 2)]])

    def test_floats_are_rejected(self):
        with pytest.raises(L.ModelError):
            L.FiniteModel(("a",), ("1", "2"), [[0.5, 0.5]])

    @pytest.mark.parametrize("thetas, samples, rows, err, message", [
        ((), ("1",), [], L.ModelError, "need at least one parameter and one sample point"),
        (("a",), (), [[]], L.ModelError, "need at least one parameter and one sample point"),
        (("a", "b"), ("1", "2"), [[F(1, 2), F(1, 2)]], L.ModelError,
         "probability matrix shape does not match labels"),
        (("a",), ("1", "2"), [[1]], L.ModelError,
         "probability matrix shape does not match labels"),
        (("a",), ("1", "2"), [["1/2", "half"]], L.ModelFormatError, "not a rational: 'half'"),
        (("a",), ("1", "2"), [["1/2", "1/0"]], L.ModelFormatError, "not a rational: '1/0'"),
    ])
    def test_malformed_input(self, thetas, samples, rows, err, message):
        with pytest.raises(err, match=f"^{re.escape(message)}$") as exc:
            L.FiniteModel(thetas, samples, rows)
        assert type(exc.value) is err

    @pytest.mark.parametrize("thetas, samples, axis", [
        ("ab", ("x", "y"), "theta"),
        (("a", "b"), "xy", "sample"),
        ((1, 2), ("x", "y"), "theta"),
        (("a", "b"), ("x", 2), "sample"),
    ])
    def test_labels_must_be_a_sequence_of_strings(self, thetas, samples, axis):
        # A bare string would be split into one label per character.
        with pytest.raises(L.ModelError,
                           match=f"^{axis} labels must be a sequence of strings$") as exc:
            L.FiniteModel(thetas, samples, [[F(1, 2), F(1, 2)], [F(1, 4), F(3, 4)]])
        assert type(exc.value) is L.ModelError

    @pytest.mark.parametrize("thetas, samples, axis, bad", [
        # Both would be written "samples a b c d", so the two models (and
        # their bases' content hashes) could not be told apart.
        (("t",), ("a b", "c", "d"), "sample", "a b"),
        (("t",), ("a", "b c", "d"), "sample", "b c"),
        (("a b",), ("x", "y"), "theta", "a b"),
        (("a", ""), ("x", "y"), "theta", ""),
        (("a",), ("x", "y#"), "sample", "y#"),
        (("a",), ("x", "y\tz"), "sample", "y\tz"),
        (("a",), ("x", "y\u3000"), "sample", "y\u3000"),
        (("a",), ("", "x y"), "sample", ""),
    ])
    def test_labels_that_do_not_read_back_are_rejected(self, thetas, samples, axis, bad):
        # format_model writes labels space-separated, and '#' starts a comment.
        rows = [[F(1, len(samples))] * len(samples)]
        with pytest.raises(L.ModelError, match=f"^{axis} label {re.escape(repr(bad))} is "
                                               "empty or holds whitespace or '#'$") as exc:
            L.FiniteModel(thetas, samples, rows)
        assert type(exc.value) is L.ModelError

    @pytest.mark.parametrize("axis", ["theta", "sample"])
    @pytest.mark.parametrize("bad", ["a,b", "d|e", "{a", "a}", "{a}b", "{a},{b}", "{}", "{a|b}"])
    def test_labels_with_marks_outside_an_event_are_rejected(self, axis, bad):
        # FiniteModel(("t", "u"), ("a,b", "c", "d|e"), rows) would render
        # 0|1,2 and 0,1|2 alike, and its text would not parse.
        labels = {"theta": ["t", "u"], "sample": ["b", "c", "d"]}
        labels[axis][0] = bad
        rows = [[F(1, 3)] * 3] * 2
        with pytest.raises(L.ModelError, match=f"^{axis} label {re.escape(repr(bad))} holds "
                                               r"one of , \| \{ \} outside an event \{a,b\}$"):
            L.FiniteModel(labels["theta"], labels["sample"], rows)

    def test_the_events_a_pushforward_names_its_blocks_by_are_labels(self, ex1):
        pushed = L.model_of_statistic(ex1, bp("1,2|3,4|5,6,7", 7))
        assert pushed.sample_labels == ("{1,2}", "{3,4}", "{5,6,7}")
        twice = L.model_of_statistic(pushed, bp("1,2|3", 3))
        assert twice.sample_labels == ("{{1,2},{3,4}}", "{{5,6,7}}")
        assert L.format_partition(L.Partition.one_block(2), twice.sample_labels) \
            == "{{1,2},{3,4}},{{5,6,7}}"

    def test_exact_entries_are_kept_as_given(self):
        q = F(1, 3)
        m = L.FiniteModel(("a",), ("1", "2"), [[q, "2/3"]])
        assert m.probs[0][0] is q and m.probs[0][1] == F(2, 3)


def _scaled_cases():
    ex1 = L.example1_model(F(1, 100))
    parsed = L.parse_model("model m\nthetas a b\nsamples 1 2 3\n"
                           "a 1/2 1/3 1/6\nb 1/4 1/4 1/2\n")
    a1 = bp("1,2|3,4|5,6|7", 7)
    return [
        ("parsed", parsed),
        ("conditional", L.condition_on_event(ex1, [0, 1, 2, 3])),
        ("mixture", L.mixture_model(ex1, a1, (F(7, 100), F(13, 100), F(27, 100), F(53, 100)))),
        ("pushforward", L.model_of_statistic(ex1, L.mss_partition(ex1))),
        ("pushforward-coarse", L.model_of_statistic(ex1, bp("1,2,3,4|5,6|7", 7))),
    ]


class TestScaledMatrix:
    @pytest.mark.parametrize("model", [m for _, m in _scaled_cases()],
                             ids=[name for name, _ in _scaled_cases()])
    def test_rows_are_the_probabilities_over_one_scale(self, model):
        scale = sum(model.scaled[0])
        assert all(sum(row) == scale for row in model.scaled)
        assert scale == math.lcm(*(v.denominator for row in model.probs for v in row))
        for t, row in enumerate(model.probs):
            assert model.scaled[t] == tuple(v * scale for v in row)
            assert all(type(v) is int for v in model.scaled[t])

    def test_scaled_takes_no_part_in_equality_or_repr(self, ex2):
        other = L.FiniteModel(ex2.theta_labels, ex2.sample_labels, ex2.probs, ex2.name)
        object.__setattr__(other, "scaled", ((0,),))
        assert other == ex2 and hash(other) == hash(ex2)
        assert "scaled" not in repr(ex2)


class TestExampleModels:
    def test_example1_rows_at_eps_1_over_100(self, ex1):
        assert ex1.probs[0] == (F(27, 200), F(23, 200), F(29, 200), F(21, 200),
                                F(1, 14), F(2, 14), F(4, 14))
        assert ex1.probs[1] == (F(21, 400), F(79, 400), F(91, 400), F(9, 400),
                                F(2, 14), F(1, 14), F(4, 14))

    @pytest.mark.parametrize("eps", [F(1, 32), F(1, 64), 0, F(-1, 100), 1])
    def test_example1_eps_out_of_range(self, eps):
        with pytest.raises(L.EpsilonOutOfRange):
            L.example1_model(eps)

    def test_example1_eps_0_rows_follow_the_forms(self, ex1, ex1_eps0):
        assert ex1_eps0.theta_labels == ex1.theta_labels
        assert ex1_eps0.sample_labels == ex1.sample_labels
        for lab, row in zip(ex1_eps0.theta_labels, ex1_eps0.probs):
            assert row == tuple(cli._eval_form(f, F(0)) for f in cli.EX1_FORMS[lab])

    def test_example2_rows(self, ex2):
        assert ex2.probs[0] == (F(1, 6), F(1, 6), F(2, 6), F(2, 6))
        assert ex2.probs[1] == (F(1, 12), F(3, 12), F(5, 12), F(3, 12))
        assert all(sum(row) == 1 for row in ex2.probs)


class TestConditioning:
    def test_example2_on_first_pair(self, ex2):
        cond = L.condition_on_event(ex2, {0, 1})
        assert cond.probs == ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)))
        assert cond.sample_labels == ("1", "2")

    def test_conditioning_on_everything_is_identity(self, ex1, ex2):
        for m in (ex1, ex2):
            assert L.condition_on_event(m, range(m.n_samples)) == m

    def test_example1_on_contour(self, ex1):
        cond = L.condition_on_event(ex1, {4, 5})
        assert cond.probs == ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3)))

    def test_zero_probability_event(self):
        m = L.FiniteModel(("a", "b"), ("1", "2", "3"),
                          [[F(1, 2), F(1, 2), 0], [F(1, 3), F(1, 3), F(1, 3)]])
        with pytest.raises(L.ZeroProbabilityEvent):
            L.condition_on_event(m, {2})
        with pytest.raises(L.ZeroProbabilityEvent):
            L.condition_on_event(m, set())

    def test_event_outside_the_sample_space(self, ex2):
        for event in ({4}, {-1, 0}):
            with pytest.raises(L.UnknownSampleLabel,
                               match="^event contains an out-of-range sample index$"):
                L.condition_on_event(ex2, event)

    def test_partially_dead_points_survive_conditioning(self):
        # A point dead under every theta cannot exist in a valid model, so
        # conditioning never drops anything; zero mixture weights do (below).
        m = L.FiniteModel(("a", "b"), ("1", "2", "3"),
                          [[F(1, 2), F(1, 2), 0], [F(1, 3), F(1, 3), F(1, 3)]])
        cond = L.condition_on_event(m, {0, 2})
        assert cond.sample_labels == ("1", "3")
        assert cond.probs == ((F(1), F(0)), (F(1, 2), F(1, 2)))

    def test_tower_property(self, ex1):
        outer = (0, 1, 2, 3, 4, 5)
        inner = (0, 1)
        once = L.condition_on_event(ex1, inner)
        step = L.condition_on_event(ex1, outer)
        remapped = [outer.index(j) for j in inner]
        twice = L.condition_on_event(step, remapped)
        assert twice == once


class TestMixture:
    def test_remixing_with_own_distribution_is_identity(self, ex1):
        a1 = bp("1,2|3,4|5,6|7", 7)
        dist = L.ancillary_distribution(ex1, a1)
        assert L.mixture_model(ex1, a1, dist) == ex1

    def test_reweighting_gives_parameter_free_laminal_blocks(self, ex1):
        a1 = bp("1,2|3,4|5,6|7", 7)
        lam = bp("1,2,3,4|5,6|7", 7)
        mix = L.mixture_model(
            ex1, a1, (F(7, 100), F(13, 100), F(27, 100), F(53, 100)))
        assert L.ancillary_distribution(mix, lam) == (F(20, 100), F(27, 100), F(53, 100))

    def test_reweighted_crossing_statistic_values(self, ex1):
        # Independent oracle: sum the new weights block by block through the
        # conditional decomposition, then compare against the mixture model.
        a1 = bp("1,2|3,4|5,6|7", 7)
        c2 = bp("1,3,5,6|2,4|7", 7)
        w = (F(7, 100), F(13, 100), F(27, 100), F(53, 100))
        mix = L.mixture_model(ex1, a1, w)
        dist = L.ancillary_distribution(ex1, a1)
        for t in range(2):
            for b in c2.blocks:
                oracle = sum(
                    (w[i] * ex1.event_prob(t, set(b) & set(block)) / dist[i]
                     for i, block in enumerate(a1.blocks)),
                    F(0),
                )
                assert mix.event_prob(t, b) == oracle
        big = set(c2.blocks[0])
        assert mix.event_prob(0, big) == F(479, 1250)
        assert mix.event_prob(1, big) == F(403, 1000)
        assert mix.event_prob(0, big) / mix.event_prob(1, big) == F(1916, 2015)

    def test_zero_weight_blocks_are_dropped(self, ex1):
        a1 = bp("1,2|3,4|5,6|7", 7)
        mix = L.mixture_model(ex1, a1, (1, 0, 0, 0))
        assert mix.sample_labels == ("1", "2")
        assert mix.probs == ((F(27, 50), F(23, 50)), (F(21, 100), F(79, 100)))

    def test_errors(self, ex1, ex2):
        a1 = bp("1,2|3,4|5,6|7", 7)
        with pytest.raises(L.NotAncillary):
            L.mixture_model(ex2, L.Partition.singletons(4), (F(1, 4),) * 4)
        with pytest.raises(L.WeightArityMismatch):
            L.mixture_model(ex1, a1, (F(1, 2), F(1, 2)))
        with pytest.raises(L.InvalidWeights):
            L.mixture_model(ex1, a1, (F(1, 2), F(1, 2), F(1, 2), F(-1, 2)))
        with pytest.raises(L.InvalidWeights):
            L.mixture_model(ex1, a1, (F(1, 2), F(1, 4), F(1, 8), F(1, 16)))

    def test_one_string_is_not_a_weight_vector(self, ex2):
        # "01" would otherwise split into the weights 0 and 1, a mixture
        # on the second block alone.
        with pytest.raises(L.InvalidWeights, match="^weights must be a sequence, not one string$"):
            L.validate_weights("01", 2)
        with pytest.raises(L.InvalidWeights, match="^weights must be a sequence, not one string$"):
            L.validate_weights(b"01", 2)
        with pytest.raises(L.InvalidWeights):
            L.mixture_model(ex2, bp("1,2|3,4", 4), "01")
        assert L.validate_weights(["0", "1"], 2) == (0, 1)

    def test_mixture_decomposition_identity(self, ex1, ex2):
        # Total probability recomposes from the blockwise conditionals.
        cases = [(ex1, bp("1,2|3,4|5,6|7", 7)), (ex1, bp("1,2,3,4|5,6|7", 7)),
                 (ex2, bp("1,2|3,4", 4))]
        for m, u in cases:
            dist = L.ancillary_distribution(m, u)
            for t in range(m.n_thetas):
                for x in range(m.n_samples):
                    b = u.block_of(x)
                    cond = m.probs[t][x] / m.event_prob(t, u.blocks[b])
                    assert dist[b] * cond == m.probs[t][x]


class TestTextFormat:
    def test_roundtrip(self, ex1, ex2, one_theta):
        for m in (ex1, ex2, one_theta):
            again = L.parse_model(L.format_model(m))
            assert again == m
            assert again.name == m.name

    def test_text_reads_back_unless_a_label_holds_a_mark(self, ex1):
        # Every test model with mark-free labels reads back; a pushforward
        # names its blocks by events, which model text does not take.
        marks = set(",|{}")
        plain = [m for _, m in MODELS
                 if marks.isdisjoint("".join(m.theta_labels + m.sample_labels))]
        for m in plain:
            assert L.parse_model(L.format_model(m)) == m
        pushforward = L.model_of_statistic(ex1, L.mss_partition(ex1))
        assert pushforward.sample_labels[0] == "{1}"
        with pytest.raises(L.ModelFormatError, match=r"^label '\{1\}' contains one of"):
            L.parse_model(L.format_model(pushforward))

    def test_comments_and_blank_lines(self):
        text = """
# a comment
model demo
thetas a b   # trailing comment
samples 1 2

a 1/2 1/2
b 1/4 3/4
"""
        m = L.parse_model(text)
        assert m.name == "demo"
        assert m.probs[1] == (F(1, 4), F(3, 4))

    def test_header_keyword_must_stand_alone(self):
        assert L.parse_model("model\tdemo x\nthetas a\nsamples 1\na 1\n").name == "demo x"
        assert L.parse_model("model\nthetas a\nsamples 1\na 1\n").name == "model"

    def test_rows_in_any_order(self):
        text = "model m\nthetas a b\nsamples 1 2\nb 1/4 3/4\na 1/2 1/2\n"
        m = L.parse_model(text)
        assert m.probs[0] == (F(1, 2), F(1, 2))

    @pytest.mark.parametrize("bad, err", [
        ("model m\nthetas a\nsamples 1 2\na 0.5 0.5\n", L.ModelFormatError),
        ("model m\nthetas a\nsamples 1 2\na 1/2\n", L.ModelFormatError),
        ("model m\nthetas a\nsamples 1 2\nzz 1/2 1/2\n", L.ModelFormatError),
        ("model m\nthetas a b\nsamples 1 2\na 1/2 1/2\n", L.ModelFormatError),
        ("thetas a\nsamples 1\na 1\n", L.ModelFormatError),
        ("model m\nthetas a\nsamples 1 2\na 1/2 1/3\n", L.RowSumError),
        ("model m\nthetas a b\nsamples 1 2\na 1 0\nb 1 0\n", L.DeadSamplePoint),
        ("model m\nthetas a\nsamples 1 1\na 1/2 1/2\n", L.DuplicateLabel),
        ("modelfoo\nthetas a\nsamples 1 2\na 1/2 1/2\n", L.ModelFormatError),
        ("model m\nthetas a\nsamples 1,2 3\na 1/2 1/2\n", L.ModelFormatError),
        ("model m\nthetas a\nsamples 1|2 3\na 1/2 1/2\n", L.ModelFormatError),
        ("model m\nthetas a\nsamples {1} 2\na 1/2 1/2\n", L.ModelFormatError),
        ("model m\nthetas a}\nsamples 1 2\na} 1/2 1/2\n", L.ModelFormatError),
    ])
    def test_parse_rejections(self, bad, err):
        with pytest.raises(err):
            L.parse_model(bad)

    @pytest.mark.parametrize("bad, message", [
        ("model m\nsamples 1 2\nthetas a\na 1/2 1/2\n",
         "second line must be 'thetas <label> ...'"),
        ("model m\nthetas\nsamples 1 2\na 1/2 1/2\n",
         "second line must be 'thetas <label> ...'"),
        ("model m\nthetas a\nthetas 1 2\na 1/2 1/2\n",
         "third line must be 'samples <label> ...'"),
        ("model m\nthetas a\nsamples\na 1/2 1/2\n",
         "third line must be 'samples <label> ...'"),
        ("model m\nthetas a b\nsamples 1 2\na 1/2 1/2\na 1/2 1/2\n",
         "duplicate row for theta 'a'"),
    ])
    def test_parse_rejection_messages(self, bad, message):
        with pytest.raises(L.ModelFormatError, match=f"^{re.escape(message)}$"):
            L.parse_model(bad)

    def test_tokens_are_signed_unreduced_rationals(self):
        m = L.parse_model("model m\nthetas a b\nsamples 1 2 3\n"
                          "a +2/4 -0/7 2/4\nb 1/4 3/8 003/8\n")
        assert m.probs == ((F(1, 2), F(0), F(1, 2)), (F(1, 4), F(3, 8), F(3, 8)))
        with pytest.raises(L.ModelFormatError, match=r"^not a rational: '1/0'$"):
            L.parse_model("model m\nthetas a\nsamples 1 2\na 1/0 1\n")


class TestInferenceBase:
    def test_observed_must_be_in_range(self, ex2):
        with pytest.raises(L.UnknownSampleLabel):
            L.InferenceBase(ex2, 9)
        assert L.InferenceBase(ex2, 3).observed_label == "4"

    def test_sample_index(self, ex2):
        assert ex2.sample_index("3") == 2
        with pytest.raises(L.UnknownSampleLabel):
            ex2.sample_index("9")
