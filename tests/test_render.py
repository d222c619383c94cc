"""Array-native rendering of endpoint samples against the per-row
`GroupWord` and `%.17g` formulas it replaced."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypsurf import cli, groups
from hypsurf.boundary import CircleMapSample, FreeAutomorphism, induced_boundary_sample
from hypsurf.disk import DiskPoint
from hypsurf.errors import InvalidInput
from hypsurf.groups import (
    _RENDER_BLOCK_ROWS,
    EndpointSample,
    SampleMode,
    csv_blocks,
    cusped_torus_group,
    limit_sample,
    octagon_group,
    schottky_rank2,
)
from hypsurf.words import GroupWord, letter_rows_to_strings


def csv_lines(s) -> list[str]:
    # to_csv_rows yields the header, then blocks of rows joined by newlines
    return "\n".join(s.to_csv_rows()).split("\n")


def reference_csv_rows(s: EndpointSample) -> list[str]:
    rows = ["theta,word"]
    for angle, row in zip(s.angles, s.letters):
        word = GroupWord(tuple(int(x) for x in row if x != 0))
        rows.append(f"{angle:.17g},{word}")
    return rows


def test_streamed_csv_matches_per_row_formula_across_blocks(octagon):
    s = limit_sample(octagon, DiskPoint(0), 6, SampleMode.AXIS_ENDPOINTS)
    assert len(s) > 2 * _RENDER_BLOCK_ROWS
    assert csv_lines(s) == reference_csv_rows(s)


def test_json_words_match_group_word_strings(octagon):
    s = limit_sample(octagon, DiskPoint(0), 3, SampleMode.ORBIT_PROJECTION)
    obj = s.to_json()
    assert obj["angles"] == [float(t) for t in s.angles]
    assert obj["words"] == [str(GroupWord.from_row(row)) for row in s.letters]


def test_orbit_basepoint_beyond_cutoff_renders_identity_row(octagon):
    base = DiskPoint(complex(0.9, 0.1))
    s = limit_sample(octagon, base, 2, SampleMode.ORBIT_PROJECTION)
    rows = csv_lines(s)
    assert rows == reference_csv_rows(s)
    assert sum(row.endswith(",1") for row in rows) == 1
    assert s.to_json()["words"].count("1") == 1


def test_all_letters_render_like_group_word():
    words = [(), (26, 26, -1)] + [(k,) for k in range(1, 27)] + [(-k, -k) for k in range(1, 27)]
    letters = np.zeros((len(words), 3), dtype=np.int8)
    for i, w in enumerate(words):
        letters[i, : len(w)] = w
    assert letter_rows_to_strings(letters) == [str(GroupWord(w)) for w in words]
    assert letter_rows_to_strings(np.zeros((2, 0), dtype=np.int8)) == ["1", "1"]
    with pytest.raises(InvalidInput):
        letter_rows_to_strings(np.array([[257]]))  # would wrap to 1 ("A") as int8


@pytest.mark.parametrize("letter", [27, -27, 127, -128])
def test_letter_beyond_26_raises(letter):
    with pytest.raises(InvalidInput):
        letter_rows_to_strings(np.array([[1, letter]], dtype=np.int8))
    s = EndpointSample(SampleMode.AXIS_ENDPOINTS, np.array([0.5]),
                       np.array([[letter]], dtype=np.int8))
    with pytest.raises(InvalidInput):
        list(s.to_csv_rows())
    with pytest.raises(InvalidInput):
        str(GroupWord((letter,)))


def test_stdout_csv_ends_in_one_newline(capsys, tmp_path):
    argv = ["limit-set", "--group", "octagon", "--n", "3"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and not out.endswith("\n\n")
    path = tmp_path / "s.csv"
    assert cli.main(argv + ["-o", str(path)]) == 0
    assert path.read_text() == out


# ---------------------------------------------------------------------------
# the float field: exactly format(x, ".17g") for every double


def assert_renders_like_format(x):
    # the float field of a one-column CSV whose words are all empty
    x = np.asarray(x, dtype=np.float64)
    text = "\n".join(csv_blocks("x", (x,), np.zeros((len(x), 0), np.int8)))
    if text != "x\n" + ",1\n".join(map(cli.format_float, x.tolist())) + ",1":
        lines = text.split("\n")[1:]
        bad = next(i for i, v in enumerate(x.tolist())
                   if lines[i] != cli.format_float(v) + ",1")
        raise AssertionError(f"{x[bad]!r} renders as {lines[bad]!r}")


@given(st.lists(st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True),
                min_size=1, max_size=50))
def test_float_field_matches_format_on_angles(angles):
    assert_renders_like_format(angles)


def test_float_field_matches_format_on_a_seeded_sweep():
    rng = np.random.default_rng(20260)
    assert_renders_like_format(np.concatenate([
        rng.uniform(0.0, 2 * math.pi, 600_000),
        10.0 ** rng.uniform(-4.5, 0.9, 250_000),
        # short decimals: their trailing zeros are dropped
        rng.integers(1, 10**5, 130_000) / 10.0 ** rng.integers(4, 9, 130_000),
        # any bit pattern: huge, tiny, subnormal, negative, inf and nan
        rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
    ]))


def test_float_field_matches_format_near_powers_of_ten_and_eight():
    # log10 rounds to the power itself just below 1e-3 (and others), and
    # the digits of a neighbour of 10**-j run to all nines or zeros
    ulps = np.arange(-64, 65)
    for p in (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 8.0):
        assert_renders_like_format((np.float64(p).view(np.int64) + ulps).view(np.float64))


def test_float_field_rounds_half_way_ties_to_even():
    # i / 2**s times 10**(16 - d) is a multiple of 1/2 with a nonzero
    # fraction for many i: the 17-digit rounding is an exact tie
    for s in (18, 19, 20, 22):
        assert_renders_like_format(np.arange(1, 8 * 2**s, 2**(s - 13) + 1) / 2**s)


def test_float_field_falls_back_to_format_outside_the_fixed_form_range():
    values = [0.0, -0.0, 5e-324, 9.99e-5, 8.0, 1e300, -1.2345678901234567e-300,
              math.nan, math.inf, -math.inf, 1e-4, 7.999999999999999]
    assert_renders_like_format(values)


# ---------------------------------------------------------------------------
# blocks


BOUNDARY_VERDICT = [
    (cusped_torus_group, "A=AB,B=B", 9),
    (cusped_torus_group, "A=A,B=B", 8),
    (octagon_group, "A=A,B=ABa,C=ACa,D=ADa", 5),
    (lambda: schottky_rank2(2.0), "A=AB,B=B", 8),
]


def test_circle_map_csv_matches_per_row_formula_in_small_blocks(monkeypatch):
    monkeypatch.setattr(groups, "_RENDER_BLOCK_ROWS", 7)
    short_last_block = False
    for make_group, aut, n in BOUNDARY_VERDICT:
        rep = make_group()
        s = induced_boundary_sample(rep, FreeAutomorphism.from_spec(aut, rank=rep.rank), n)
        assert len(s) > 3 * 7
        short_last_block |= len(s) % 7 != 0
        words = [str(GroupWord.from_row(row)) for row in s.letters]
        reference = ["theta_in,theta_out,word"] + [
            f"{tin:.17g},{tout:.17g},{word}"
            for tin, tout, word in zip(s.theta_in.tolist(), s.theta_out.tolist(), words)]
        blocks = list(s.to_csv_rows())
        assert len(blocks) == 1 + -(-len(s) // 7)
        assert "\n".join(blocks).split("\n") == reference
    assert short_last_block


def test_empty_circle_map_sample_renders_its_header_alone():
    empty = CircleMapSample(np.zeros(0), np.zeros(0), np.zeros((0, 1), np.int8))
    assert list(empty.to_csv_rows()) == ["theta_in,theta_out,word"]


def test_angle_zero_renders_through_the_fallback(capsys):
    assert cli.main(["limit-set", "--group", "cusped-torus", "--n", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["theta,word", "0,A"]
