"""Array-native rendering of endpoint samples against the per-row
`GroupWord` formula it replaced."""

import numpy as np
import pytest

from hypsurf import cli
from hypsurf.disk import DiskPoint
from hypsurf.errors import InvalidInput
from hypsurf.groups import _RENDER_BLOCK_ROWS, EndpointSample, SampleMode, limit_sample
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
