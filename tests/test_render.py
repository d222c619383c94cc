"""Array-native rendering of samples (`hypsurf.text`) against the per-row
`GroupWord`, `%.17g` and `json.dumps` formulas it replaced."""

import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypsurf import cli, pool, text
from hypsurf.boundary import CircleMapSample, FreeAutomorphism, induced_boundary_sample
from hypsurf.disk import DiskPoint
from hypsurf.errors import InvalidInput
from hypsurf.groups import (
    EndpointSample,
    SampleMode,
    cusped_torus_group,
    limit_sample,
    octagon_group,
    schottky_rank2,
)
from hypsurf.words import GroupWord


def csv_lines(s) -> list[str]:
    # to_csv_rows yields chunks that concatenate to the text
    return "".join(s.to_csv_rows()).split("\n")


def endpoint_json_text(s: EndpointSample) -> str:
    return "".join(text.endpoint_json(s.mode.value, s.angles, s.letters))


def letter_strings(letters) -> list[str]:
    return [bytes(row).replace(b"\0", b"").decode() for row in text.letter_text(letters)]


def reference_csv_rows(s: EndpointSample) -> list[str]:
    rows = ["theta,word"]
    for angle, row in zip(s.angles, s.letters):
        word = GroupWord(tuple(int(x) for x in row if x != 0))
        rows.append(f"{angle:.17g},{word}")
    return rows


def test_streamed_csv_matches_per_row_formula_across_blocks(octagon, workers):
    s = limit_sample(octagon, DiskPoint(0), 6, SampleMode.AXIS_ENDPOINTS)
    assert len(s) > 2 * pool.BLOCK_ROWS
    assert csv_lines(s) == reference_csv_rows(s)


def test_json_words_match_group_word_strings(octagon):
    s = limit_sample(octagon, DiskPoint(0), 3, SampleMode.ORBIT_PROJECTION)
    obj = json.loads(endpoint_json_text(s))
    assert obj["angles"] == [float(t) for t in s.angles]
    assert obj["words"] == [str(GroupWord.from_row(row)) for row in s.letters]


def test_orbit_basepoint_beyond_cutoff_renders_identity_row(octagon):
    base = DiskPoint(complex(0.9, 0.1))
    s = limit_sample(octagon, base, 2, SampleMode.ORBIT_PROJECTION)
    rows = csv_lines(s)
    assert rows == reference_csv_rows(s)
    assert sum(row.endswith(",1") for row in rows) == 1
    assert json.loads(endpoint_json_text(s))["words"].count("1") == 1


def test_all_letters_render_like_group_word():
    words = [(), (26, 26, -1)] + [(k,) for k in range(1, 27)] + [(-k, -k) for k in range(1, 27)]
    letters = np.zeros((len(words), 3), dtype=np.int8)
    for i, w in enumerate(words):
        letters[i, : len(w)] = w
    assert letter_strings(letters) == [str(GroupWord(w)) for w in words]
    assert letter_strings(np.zeros((2, 0), dtype=np.int8)) == ["1", "1"]
    with pytest.raises(InvalidInput):
        text.letter_text(np.array([[257]]))  # would wrap to 1 ("A") as int8


@pytest.mark.parametrize("letter", [27, -27, 127, -128])
def test_letter_beyond_26_raises(letter):
    with pytest.raises(InvalidInput):
        text.letter_text(np.array([[1, letter]], dtype=np.int8))
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
    csv = "".join(text.sample_csv("x", (x,), np.zeros((len(x), 0), np.int8)))
    if csv != "x\n" + ",1\n".join(map(text.format_float, x.tolist())) + ",1":
        lines = csv.split("\n")[1:]
        bad = next(i for i, v in enumerate(x.tolist())
                   if lines[i] != text.format_float(v) + ",1")
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


def test_circle_map_csv_matches_per_row_formula_in_small_blocks(monkeypatch, workers):
    monkeypatch.setattr(pool, "BLOCK_ROWS", 7)
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
        assert "".join(blocks).split("\n") == reference
    assert short_last_block


def test_empty_circle_map_sample_renders_its_header_alone():
    empty = CircleMapSample(np.zeros(0), np.zeros(0), np.zeros((0, 1), np.int8))
    assert list(empty.to_csv_rows()) == ["theta_in,theta_out,word"]


def test_angle_zero_renders_through_the_fallback(capsys):
    assert cli.main(["limit-set", "--group", "cusped-torus", "--n", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["theta,word", "0,A"]


# ---------------------------------------------------------------------------
# JSON: the block renderer against a reference built value by value


def reference_json(s) -> str:
    """The CLI's JSON of a sample, one `format(x, ".17g")` and one
    `json.dumps(word)` at a time, with its final newline."""
    words = [json.dumps(str(GroupWord.from_row(row))) for row in s.letters]
    if isinstance(s, CircleMapSample):
        pairs = ",".join(
            f'{{"theta_in":{tin:.17g},"theta_out":{tout:.17g},"word":{word}}}'
            for tin, tout, word in zip(s.theta_in.tolist(), s.theta_out.tolist(), words))
        return f'{{"pairs":[{pairs}],"skipped":{s.skipped}}}\n'
    angles = ",".join(format(x, ".17g") for x in s.angles.tolist())
    return (f'{{"mode":{json.dumps(s.mode.value)},"angles":[{angles}],'
            f'"words":[{",".join(words)}]}}\n')


def set_block_rows_not_dividing(monkeypatch, count: int) -> int:
    rows = next(r for r in range(7, 64) if count % r)
    monkeypatch.setattr(pool, "BLOCK_ROWS", rows)
    return rows


#: (argv, the sample the CLI renders for it)
JSON_RUNS = [
    (f"limit-set --group {group} --n {n} --mode {mode}",
     lambda make=make, n=n, mode=mode: limit_sample(make(), DiskPoint(0), n, SampleMode(mode)))
    for group, make, n in (("octagon", octagon_group, 3),
                           ("schottky", lambda: schottky_rank2(4.0), 4),
                           ("cusped-torus", cusped_torus_group, 4))
    for mode in ("orbit", "axes")
] + [
    (f"boundary-map --group {group} --aut {aut} --n {n}",
     lambda make=make, aut=aut, n=n: induced_boundary_sample(
         make(), FreeAutomorphism.from_spec(aut, rank=make().rank), n))
    for group, make, aut, n in (("cusped-torus", cusped_torus_group, "A=AB,B=B", 6),
                                ("octagon", octagon_group, "A=A,B=ABa,C=ACa,D=ADa", 4))
]


@pytest.mark.parametrize("argv, sample", JSON_RUNS, ids=[argv for argv, _ in JSON_RUNS])
def test_cli_json_matches_per_value_reference_in_short_blocks(argv, sample, monkeypatch,
                                                              tmp_path, workers):
    s = sample()
    rows = set_block_rows_not_dividing(monkeypatch, len(s))
    assert len(s) > 2 * rows
    path = tmp_path / "s.json"
    assert cli.main(argv.split() + ["--format", "json", "-o", str(path)]) == 0
    blocked = path.read_text()
    monkeypatch.setattr(pool, "BLOCK_ROWS", 10**9)
    assert cli.main(argv.split() + ["--format", "json", "-o", str(path)]) == 0
    assert blocked == path.read_text() == reference_json(s)


#: 0, both sides of 1e-4 (the fixed-form fast path's edge), exponent forms,
#: a subnormal, values up to and beyond 2*pi, and 8 (outside the fast path)
EDGE_ANGLES = np.array([
    0.0, np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0), 1e-5, 1.5e-7, 5e-324,
    0.1, 0.5, 3.0, np.nextafter(2 * math.pi, 0.0), 2 * math.pi, np.nextafter(2 * math.pi, 7.0),
    7.999999999999999, 8.0, 1e300,
])


def edge_letters(count: int) -> np.ndarray:
    # the empty word, single letters of every sign and longer words
    letters = np.zeros((count, 3), dtype=np.int8)
    for i in range(1, count):
        letters[i, : 1 + i % 3] = [(i % 4 + 1) * (-1) ** i] * (1 + i % 3)
    return letters


@pytest.mark.parametrize("rows", [5, 7, 64])
def test_json_of_edge_values_matches_per_value_reference(rows, monkeypatch, tmp_path):
    monkeypatch.setattr(pool, "BLOCK_ROWS", rows)
    letters = edge_letters(len(EDGE_ANGLES))
    samples = [
        EndpointSample(SampleMode.AXIS_ENDPOINTS, EDGE_ANGLES, letters),
        CircleMapSample(EDGE_ANGLES, EDGE_ANGLES[::-1].copy(), letters, skipped=3),
        EndpointSample(SampleMode.ORBIT_PROJECTION, EDGE_ANGLES[:1], letters[:1]),
        CircleMapSample(np.zeros(0), np.zeros(0), np.zeros((0, 1), np.int8)),
    ]
    path = tmp_path / "s.json"
    for s in samples:
        cli._emit_sample(s, "json", str(path))
        assert path.read_text() == reference_json(s)
    assert path.read_text() == '{"pairs":[],"skipped":0}\n'
    cli._emit_sample(samples[0], "json", str(path))
    assert json.loads(path.read_text())["words"][:3] == ["1", "bb", "CCC"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_json_value_exits_2_before_any_output(bad, monkeypatch, tmp_path, capsys):
    angles = np.linspace(0.0, 6.0, 20)
    angles[13] = bad
    letters = edge_letters(20)
    monkeypatch.setattr(pool, "BLOCK_ROWS", 4)
    monkeypatch.setattr(cli, "limit_sample", lambda *args, **kwargs: EndpointSample(
        SampleMode.AXIS_ENDPOINTS, angles, letters))
    monkeypatch.setattr(cli, "induced_boundary_sample", lambda *args: CircleMapSample(
        np.linspace(0.0, 6.0, 20), angles, letters))
    for argv in ("limit-set --group octagon --n 2 --format json",
                 "boundary-map --group cusped-torus --aut A=AB,B=B --n 2 --format json"):
        assert cli.main(argv.split()) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert cli.main(argv.split() + ["-o", str(tmp_path / "s.json")]) == 2
        assert not (tmp_path / "s.json").exists()
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidInput"
        assert json.loads(err) == {"error": "InvalidInput",
                                   "message": "non-finite float has no JSON encoding here"}


def test_importing_the_cli_builds_no_text_table():
    src = Path(cli.__file__).resolve().parent.parent
    probe = textwrap.dedent("""
        import json
        import hypsurf.cli
        from hypsurf import text
        print(json.dumps([text._digit_tables.cache_info().currsize,
                          text._letter_ascii_table.cache_info().currsize]))
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, 0]
