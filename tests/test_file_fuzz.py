"""Corrupt-file fuzzing of the readers: valid dataset (.bin) and checkpoint
(.nt) files, truncated at random offsets or with random bytes flipped, must
either load or raise InvalidDataError, and a command reading a file its
loader rejects must exit 2 with an error line, never a traceback. A dataset
the loader accepts saves back to the same bytes."""

import shutil
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from branchvi.checkpoint import load_tensors
from branchvi.cli import load_checkpoint, main
from branchvi.data import load_dataset, save_dataset
from branchvi.errors import InvalidDataError

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A generated dataset and checkpoints of a lazy branch run and an amortized run."""
    root = tmp_path_factory.mktemp("fuzz")
    gen = root / "gen"
    assert main(["generate", "--model", "synthetic", "--dim", "1", "--branches", "4",
                 "--obs", "3", "--seed", "5", "--out-dir", str(gen)]) == 0
    common = ["--model", "synthetic", "--dim", "1", "--data", str(gen / "data"),
              "--iters", "3", "--n-mc", "2", "--batch-size", "2", "--trace-every", "0"]
    assert main(["train", *common, "--out-dir", str(root / "branch")]) == 0
    assert main(["train", *common, "--family", "amortized", "--structure", "diag",
                 "--out-dir", str(root / "amortized")]) == 0
    return {"data": gen / "data", "branch": root / "branch" / "checkpoint.nt",
            "amortized": root / "amortized" / "checkpoint.nt"}


def corruptions(draw, size):
    """(truncate_at, flips): cut the file at an offset, or xor a few bytes."""
    if draw(st.booleans()):
        return draw(st.integers(0, size - 1)), []
    flips = draw(st.lists(st.tuples(st.integers(0, size - 1), st.integers(1, 255)),
                          min_size=1, max_size=4))
    return None, flips


def corrupt(src: Path, dst: Path, cut, flips) -> None:
    data = bytearray(src.read_bytes())
    if cut is not None:
        data = data[:cut]
    for pos, mask in flips:
        data[pos] ^= mask
    dst.write_bytes(bytes(data))


def exits_2(argv, capsys):
    capsys.readouterr()
    rc = main(argv)  # an exception other than the CLI's own handling fails the test
    out = capsys.readouterr()
    assert rc == 2, (argv, out.err)
    assert out.err.startswith("error: ") and "Traceback" not in out.err + out.out


@pytest.mark.parametrize("which", ["branch", "amortized"])
@FUZZ
@given(data=st.data())
def test_corrupt_checkpoint_loads_or_is_rejected(valid_files, which, data, tmp_path, capsys):
    src = valid_files[which]
    cut, flips = corruptions(data.draw, src.stat().st_size)
    bad = tmp_path / "bad.nt"
    corrupt(src, bad, cut, flips)
    try:
        load_tensors(bad)
    except InvalidDataError:
        pass
    try:
        load_checkpoint(bad)
    except InvalidDataError:
        family = ["--family", which] + (["--structure", "diag"] if which == "amortized" else [])
        exits_2(["eval", "--checkpoint", str(bad), "--model", "synthetic", "--dim", "1",
                 "--data", str(valid_files["data"]), "--k-samples", "2", *family,
                 "--out-dir", str(tmp_path / "eval")], capsys)


@FUZZ
@given(data=st.data())
def test_corrupt_dataset_loads_or_is_rejected(valid_files, data, tmp_path, capsys):
    base = valid_files["data"]
    src = Path(f"{base}.bin")
    cut, flips = corruptions(data.draw, src.stat().st_size)
    shutil.copy(f"{base}.meta", tmp_path / "data.meta")
    corrupt(src, tmp_path / "data.bin", cut, flips)
    try:
        ds = load_dataset(str(tmp_path / "data"))
    except InvalidDataError:
        exits_2(["train", "--model", "synthetic", "--dim", "1", "--data",
                 str(tmp_path / "data"), "--iters", "1", "--out-dir", str(tmp_path / "run")],
                capsys)
        return
    # whatever the loader accepts, the writer reproduces byte for byte
    save_dataset(ds, str(tmp_path / "again"))
    assert (tmp_path / "again.bin").read_bytes() == (tmp_path / "data.bin").read_bytes()
