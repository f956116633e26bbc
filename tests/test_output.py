"""The output formats: every CSV the writer prints is the ``%.17g`` text NumPy's
own writer gives for the same rows, cell for cell and byte for byte."""

import io
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monorhythm import cli, output

CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def config_path(name):
    return os.path.join(CONFIG_DIR, name)


def read_bytes(out_dir, name):
    with open(os.path.join(str(out_dir), name), "rb") as fh:
        return fh.read()


def _reference_cell(value) -> str:
    """Reference: the per-cell formatting CSV rows were once joined from."""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return "%.17g" % float(value)


def _reference_csv(comment, header, rows) -> bytes:
    lines = [f"# {comment}", header]
    for row in rows:
        lines.append(",".join(_reference_cell(v) for v in row))
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_csv_writer_matches_per_cell_reference(tmp_path):
    rng = np.random.default_rng(5)
    floats = rng.standard_normal(12) * 10.0 ** rng.integers(-20, 20, 12)
    floats[[1, 4, 7]] = (-0.0, 1e-300, np.nan)
    counts = np.array([0, 1, 64] * 4)
    flags = floats > 0.0
    rows = list(zip(floats.tolist(), counts.tolist(), flags.astype(int).tolist(), flags))
    path = tmp_path / "mixed.csv"
    output.write_csv(str(path), "mixed columns", "x,m,flag,member", rows)
    data = path.read_bytes()
    assert data == _reference_csv("mixed columns", "x,m,flag,member", rows)
    for token in (b"\n-0,", b"e-300,", b"\nnan,", b",64,"):
        assert token in data, f"{token!r} missing from the written rows"


def _savetxt_csv(comment, header, rows) -> bytes:
    """Reference: the comment, the header, then ``np.savetxt``'s ``%.17g`` rows."""
    buf = io.StringIO()
    np.savetxt(buf, np.asarray(rows, dtype=float), fmt="%.17g", delimiter=",")
    return f"# {comment}\n{header}\n{buf.getvalue()}".encode("utf-8")


# values whose text a writer deduplicating by float value would get wrong,
# plus the extremes of the double range
_SPECIAL_CELLS = (0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 1.0)


def _decimal_ties():
    """Exact ties of 17-digit rounding: doubles m / 2^(j+1) (m odd) whose
    decimal expansion is the 18 digits of m 5^j, the last a 5, so that
    x 10^j = n + 1/2 with n near 10^16 to 10^17. For j >= 23 the power of
    ten is not one double."""
    rng = np.random.default_rng(19)
    ties = []
    for j in range(1, 25):
        lo, hi = -(-2 * 10**16 // 5**j), min(2 * 10**17 // 5**j, 2**53)
        for m in {int(m) | 1 for m in rng.integers(lo, hi, 12)} | {lo | 1}:
            if m * 5**j < 2 * 10**17:
                ties.append(m / 2 ** (j + 1))
    return ties


def _near_ties():
    """Doubles m / 2^(j+d) with x 10^j = m 5^j / 2^d within 2^-d of n + 1/2,
    n in [10^16, 10^17): for j >= 23 the power of ten is not one double, and
    at d >= 48 the tie is nearer than Dekker's product resolves."""
    ties = []
    for j in (23, 24, 25):  # past 25 no m of 53 bits gives n in range
        for d in range(48, 58):
            for side in (1, -1):
                m = (2 ** (d - 1) + side) * pow(5**j, -1, 2**d) % 2**d
                m += 2**d * max(0, -(-(2**52 - m) // 2**d))  # the first such m of 53 bits
                if m < 2**53 and 10**16 <= m * 5**j // 2**d < 10**17:
                    ties.append(m / 2 ** (j + d))
    return ties


def _edge_cells() -> np.ndarray:
    """Values a random bit pattern almost never lands on, with both signs:
    powers of ten and their neighbours one ulp either side, values that
    round up into the next decade, the notation switches at 1e-5/1e-4 and
    1e16/1e17, three-digit exponents, integers with trailing zeros, and
    exact and near decimal ties."""
    powers = np.array([float(f"1e{q}") for q in range(-300, 301)])
    values = [
        powers,
        np.nextafter(powers, 0.0),
        np.nextafter(powers, np.inf),
        [float(f"9.99999999999999999e{k}") for k in range(-300, 301)],
        [float(f"9.9999999999999999e{k}") for k in range(-300, 301)],
        [9.99995e-5, 0.000123, 9.9999999999999991e15, 1.2345e16, 99999999999999984.0],
        [159400.0, 1e20, 1000.0, 1234500000.0, 2.0**53, 10.0**15 * 7, 3e22],
        _decimal_ties(),
        _near_ties(),
    ]
    cells = np.concatenate([np.asarray(v, dtype=float) for v in values])
    return np.concatenate([cells, -cells])


_EDGE_CELLS = _edge_cells()


@st.composite
def _csv_arrays(draw):
    """Rows of 1-4 columns, each few-valued from a drawn pool, dense in
    random bit patterns or dense in ``_EDGE_CELLS``, with row counts on
    both sides of a block boundary."""
    n_cols = draw(st.integers(1, 4))
    step = output._BLOCK_CELLS // n_cols
    n_rows = draw(st.sampled_from((1, 2, 5, step - 1, step, step + 1, 2 * step + 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cells = st.sampled_from(_SPECIAL_CELLS) | st.floats(allow_subnormal=True)
    columns = []
    for _ in range(n_cols):
        pool = np.array(draw(st.lists(cells, min_size=1, max_size=6)))
        column = rng.choice(pool, n_rows)
        kind = draw(st.sampled_from(("few", "bits", "edge")))
        keep = rng.random(n_rows) < 0.8
        if kind == "bits":  # every cell a random double, NaN payloads included
            dense = rng.integers(-(2**63), 2**63, n_rows, dtype=np.int64, endpoint=False)
            column[keep] = dense.view(np.float64)[keep]
        elif kind == "edge":
            column[keep] = rng.choice(_EDGE_CELLS, n_rows)[keep]
        columns.append(column)
    return np.column_stack(columns)


@settings(max_examples=60, deadline=None)
@given(_csv_arrays())
@example(np.array([[0.0], [-0.0], [0.0], [-0.0], [0.0], [-0.0], [0.0], [-0.0]]))
@example(np.array([[-0.0, np.nan, np.inf, -np.inf, 5e-324]]))
@example(_EDGE_CELLS[:, None])
def test_csv_writer_matches_savetxt(tmp_path_factory, rows):
    path = tmp_path_factory.mktemp("csv") / "rows.csv"
    output.write_csv(str(path), "drawn rows", "header", rows)
    assert path.read_bytes() == _savetxt_csv("drawn rows", "header", rows)


@pytest.mark.parametrize(
    "command, config",
    [("param-region", "reaction_region.cfg"), ("solve-periodic", "feasible_periodic.cfg")],
)
def test_written_csvs_are_the_savetxt_bytes_of_their_rows(tmp_path, capsys, monkeypatch,
                                                           command, config):
    specs = []
    run = cli._COMMANDS[command]

    def recorded(cfg, **kwargs):
        payload, flags, files = run(cfg, **kwargs)
        specs.extend(files)
        return payload, flags, files

    monkeypatch.setitem(cli._COMMANDS, command, recorded)
    assert cli.main([command, "--config", config_path(config), "--out", str(tmp_path)]) == 0
    written = sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".csv")
    assert written == sorted(name for name, *_ in specs) and written
    for name, comment, header, rows in specs:
        assert read_bytes(tmp_path, name) == _savetxt_csv(comment, header, rows), name
    capsys.readouterr()  # swallow the written-path listing
