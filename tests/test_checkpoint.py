"""Binary tensor serialization: format, round-trips, corruption handling."""

import io
import math
import shutil
import struct
import tracemalloc

import numpy as np
import pytest

import sparse_lab.checkpoint as checkpoint_mod
import sparse_lab.sketch as sketch_mod
from sparse_lab import (
    DatasetSpec,
    Mask,
    MlpArchitecture,
    OptimizerState,
    ParamSet,
    PruneScope,
    SketchConfig,
    TrainConfig,
    cli_main,
    init_params,
    prune,
    resume,
    rewind,
    run_sketch,
    sparsity,
)
from sparse_lab.checkpoint import (
    BINARY,
    DENSE,
    MAGIC,
    SPARSE,
    VERSION,
    CheckpointError,
    load_params,
    load_tensors,
    save_params,
    save_tensors,
    verify_tensors,
)

from reference import equals_bitwise


class TestTensorRoundTrip:
    def test_round_trip_preserves_bits_and_order(self, tmp_path):
        rng = np.random.default_rng(1)
        tensors = {
            "fc1.weight": rng.standard_normal((4, 3)),
            "fc1.bias": np.zeros(4),
            "scalarish": rng.standard_normal((1,)),
        }
        path = tmp_path / "t.bin"
        save_tensors(path, tensors)
        loaded = load_tensors(path)
        assert list(loaded) == list(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])
            assert loaded[name].dtype == np.float64

    def test_file_starts_with_magic_and_version(self, tmp_path):
        path = tmp_path / "t.bin"
        save_tensors(path, {"a": np.ones(2)})
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        assert blob[4] == VERSION
        (count,) = struct.unpack_from("<I", blob, 5)
        assert count == 1

    def test_params_round_trip_with_prunability(self, tmp_path):
        params = init_params(MlpArchitecture([5, 4, 2]), seed=9)
        path = tmp_path / "p.bin"
        save_params(path, params)
        loaded = load_params(path)
        assert equals_bitwise(loaded, params)
        assert loaded.prunable_names() == params.prunable_names()
        assert not loaded.is_prunable("fc1.bias")


class TestCorruption:
    def _saved(self, tmp_path):
        path = tmp_path / "t.bin"
        save_tensors(path, {"w": np.arange(6, dtype=float).reshape(2, 3)})
        return path

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(CheckpointError, match="bad magic"):
            load_tensors(path)

    def test_unsupported_version(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_tensors(path)

    def test_truncated_payload(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            load_tensors(path)

    def test_trailing_garbage(self, tmp_path):
        path = self._saved(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00\x01")
        with pytest.raises(CheckpointError, match="trailing"):
            load_tensors(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_tensors(tmp_path / "absent.bin")

    def test_duplicate_name(self, tmp_path):
        path = tmp_path / "t.bin"
        save_tensors(path, {"fc1.weight": np.ones((1, 2)), "fc1.wei9ht": np.ones((1, 2))})
        path.write_bytes(path.read_bytes().replace(b"fc1.wei9ht", b"fc1.weight"))
        for read in (load_tensors, load_params, verify_tensors):
            with pytest.raises(CheckpointError, match="duplicate tensor name 'fc1.weight'"):
                read(path)


def write_v1(path, tensors):
    """Write ``tensors`` in the version-1 layout: every record dense, no encoding byte."""
    parts = [MAGIC, struct.pack("<BI", 1, len(tensors))]
    for name, arr in tensors.items():
        arr = np.require(arr, dtype="<f8", requirements="C")
        encoded = name.encode("utf-8")
        parts += [struct.pack("<H", len(encoded)), encoded, struct.pack("<B", arr.ndim),
                  struct.pack(f"<{arr.ndim}I", *arr.shape), arr.tobytes()]
    path.write_bytes(b"".join(parts))


def record_offset(name, ndim):
    """Byte offset of the encoding byte of a file's first record."""
    return 4 + 5 + 2 + len(name.encode("utf-8")) + 1 + 4 * ndim


def record_bytes(name, shape, payload):
    """Bytes of one version-2 record holding ``payload`` bytes."""
    return 2 + len(name.encode("utf-8")) + 1 + 4 * len(shape) + 9 + payload


def sparse_array(shape, density, seed=0):
    rng = np.random.default_rng(seed)
    arr = rng.standard_normal(shape)
    arr[rng.random(shape) >= density] = 0.0
    return arr


def with_specials():
    arr = sparse_array((40, 25), 0.01)
    arr.flat[[3, 77, 500, 999]] = [np.nan, np.inf, -np.inf, -0.0]
    arr.flat[4] = np.frombuffer(struct.pack("<Q", 0x7FF8_0000_0000_0ABC), dtype="<f8")[0]
    return arr


def negative_zeros():
    arr = np.full((6, 6), -0.0)
    arr[0, 0] = 2.5
    return arr


def dense_with_negative_zero():
    # one zero in 64 entries saves 8 bytes of values and costs 8 of bitmap: stays dense
    arr = np.arange(1.0, 65.0).reshape(8, 8)
    arr[1, 1] = -0.0
    return arr


CODEC_CASES = {
    "density 0": (np.zeros((7, 5)), BINARY),
    "density 1e-3": (sparse_array((100, 80), 1e-3), SPARSE),
    "density 0.5": (sparse_array((30, 20), 0.5), SPARSE),
    "density 1": (np.random.default_rng(2).standard_normal((9, 4)), DENSE),
    "all ones": (np.ones((3, 11)), BINARY),
    "binary mask": (np.array([1.0, 0.0, -0.0, 1.0, 1.0]), BINARY),
    "nan and inf": (with_specials(), SPARSE),
    "dense nan and inf": (np.array([np.nan, np.inf, -np.inf, 1.5]), DENSE),
    "negative zeros": (negative_zeros(), SPARSE),
    "dense negative zero": (dense_with_negative_zero(), DENSE),
    "shape (0,)": (np.zeros((0,)), BINARY),
    "rank 0": (np.array(-3.25), DENSE),
    "rank 0 one": (np.array(1.0), BINARY),
}


def counting_file(read: list):
    """``io.FileIO`` that appends the size of every read, by ``read`` or ``readinto``, to ``read``."""
    class CountingFile(io.FileIO):
        def read(self, size=-1):
            data = super().read(size)
            read.append(len(data))
            return data

        def readinto(self, buffer):
            count = super().readinto(buffer)
            read.append(count)
            return count

    return CountingFile


class TestEncodings:
    @pytest.mark.parametrize("case", list(CODEC_CASES))
    def test_round_trip_and_chosen_encoding(self, tmp_path, case):
        arr, expected = CODEC_CASES[case]
        path = tmp_path / "t.bin"
        save_tensors(path, {"t": arr})
        blob = path.read_bytes()
        encoding, count = struct.unpack_from("<BQ", blob, record_offset("t", arr.ndim))
        assert encoding == expected
        nonzero = arr != 0.0  # NaN counts as nonzero
        assert count == (arr.size if expected == DENSE else int(nonzero.sum()))

        loaded = load_tensors(path)["t"]
        assert loaded.shape == arr.shape and loaded.dtype == np.float64
        bits, loaded_bits = arr.view(np.uint64), loaded.view(np.uint64)
        assert np.array_equal(loaded_bits[nonzero], bits[nonzero])
        if expected == DENSE:
            assert np.array_equal(loaded_bits, bits)
        else:  # a zero of either sign reads back as +0.0
            assert not loaded_bits[~nonzero].any()

    def test_sizes_follow_the_encoding(self, tmp_path):
        for case, (arr, encoding) in CODEC_CASES.items():
            path = tmp_path / "t.bin"
            save_tensors(path, {"t": arr})
            bitmap = math.ceil(arr.size / 8)
            payload = {DENSE: 8 * arr.size, BINARY: bitmap,
                       SPARSE: bitmap + 8 * int((arr != 0.0).sum())}[encoding]
            assert path.stat().st_size == 9 + record_bytes("t", arr.shape, payload), case

    def test_verify_reads_headers_only(self, tmp_path, monkeypatch):
        tensors = {case: arr for case, (arr, _) in CODEC_CASES.items()}
        path = tmp_path / "t.bin"
        save_tensors(path, tensors)
        read = []

        monkeypatch.setattr(checkpoint_mod, "open", counting_file(read), raising=False)
        verify_tensors(path)
        headers = 9 + sum(record_bytes(name, arr.shape, 0) for name, arr in tensors.items())
        assert sum(read) == headers
        read.clear()
        assert list(load_tensors(path)) == list(tensors)
        assert sum(read) == path.stat().st_size

    def test_load_params_reads_each_file_once(self, tmp_path, monkeypatch):
        params = init_params(MlpArchitecture([6, 5, 3]), 2)
        params["fc1.weight"][:, 1:] = 0.0  # a sparse record beside dense and binary ones
        path = tmp_path / "params.bin"
        save_params(path, params)
        read = []

        monkeypatch.setattr(checkpoint_mod, "open", counting_file(read), raising=False)
        loaded = load_params(path)
        assert sum(read) == path.stat().st_size
        assert loaded.buffer.tobytes() == params.buffer.tobytes()

    def test_version_one_file_loads_bit_for_bit(self, tmp_path):
        tensors = {"w": dense_with_negative_zero(), "z": negative_zeros(), "s": np.array(2.0)}
        path = tmp_path / "v1.bin"
        write_v1(path, tensors)
        verify_tensors(path)
        loaded = load_tensors(path)
        assert list(loaded) == list(tensors)
        for name, arr in tensors.items():
            assert np.array_equal(loaded[name].view(np.uint64), arr.view(np.uint64))


MASK_13 = np.array([1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1, 0], dtype=float)  # 3 padding bits


def corrupt(blob, arr, kind):
    """Damage the one record of ``blob``, which holds ``arr`` under the name "t"."""
    at = record_offset("t", arr.ndim)
    (count,) = struct.unpack_from("<Q", blob, at + 1)
    bitmap = at + 9
    if kind == "count off by one":
        struct.pack_into("<Q", blob, at + 1, count + 1)
    elif kind == "bitmap bit flipped":
        blob[bitmap] ^= 0b10  # entry 1 of MASK_13 and of the sparse tensor is 0
    elif kind == "padding bit set":
        blob[bitmap + 1] |= 0b1000_0000
    elif kind == "unknown encoding":
        blob[at] = 7
    elif kind == "truncated bitmap":
        del blob[bitmap + 1:]
    elif kind == "truncated values":
        del blob[-3:]
    elif kind == "dense count":
        struct.pack_into("<Q", blob, at + 1, count - 1)
    return blob


def sparse_13():
    return MASK_13 * np.arange(1.0, 14.0) / 7.0


def traced_peak(read, path):
    """tracemalloc's peak, in bytes, over ``read(path)``."""
    tracemalloc.start()
    try:
        read(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLoadMemory:
    """A load decodes each value once, into the buffer it ends in."""

    @pytest.fixture(scope="class")
    def lenet(self, tmp_path_factory):
        """A dense 784-300-100-10 file, the first layerwise round past 90%
        sparsity as params and as a mask, and their decoded sizes."""
        root = tmp_path_factory.mktemp("lenet")
        params = init_params(MlpArchitecture([784, 300, 100, 10]), 0)
        save_params(root / "dense.bin", params)
        mask = Mask.full(params)
        while sparsity(mask) <= 0.9:
            mask = prune(params, mask, 0.2, PruneScope.LAYERWISE)
        rewind(params, params.copy(), mask, OptimizerState(params))
        save_params(root / "sparse.bin", params)
        save_params(root / "mask.bin", mask)
        return root, 8 * params.total_count(), 8 * mask.total()

    @pytest.mark.parametrize("name", ["dense.bin", "sparse.bin"])
    def test_load_params_peaks_near_the_decoded_bytes(self, lenet, name):
        root, decoded, _ = lenet
        assert traced_peak(load_params, root / name) <= 1.2 * decoded

    def test_mask_load_peaks_near_the_decoded_bytes(self, lenet):
        root, _, decoded = lenet

        def load_mask(path):
            loaded = load_params(path)
            return Mask.on_buffer(loaded.buffer, loaded.shapes())

        assert traced_peak(load_mask, root / "mask.bin") <= 1.13 * decoded

    @pytest.mark.parametrize("name", ["dense.bin", "sparse.bin", "mask.bin"])
    def test_load_into_an_existing_set_lays_out_no_buffer(self, lenet, name):
        root, params_bytes, mask_bytes = lenet
        out, decoded = load_params(root / name), params_bytes
        if name == "mask.bin":
            out, decoded = Mask.on_buffer(out.buffer, out.shapes()), mask_bytes
        # a bitmap and a block of unpacked bits, or a mask's check (a bool per
        # entry of one tensor): at most one byte per value, never a second buffer
        assert traced_peak(lambda path: load_params(path, out), root / name) <= decoded / 8


class TestLoadInto:
    """``load_params(path, out)`` decodes into a set laid out as the file is."""

    @pytest.fixture
    def saved(self, tmp_path):
        """Every codec case in one file, and a set of its layout holding other values."""
        tensors = {name.replace(" ", "_"): arr for name, (arr, _) in CODEC_CASES.items()}
        path = tmp_path / "all.bin"
        save_tensors(path, tensors)
        out = ParamSet(tensors)
        out.buffer[...] = np.nan
        return path, out

    def test_values_equal_a_fresh_load_bit_for_bit(self, saved):
        path, out = saved
        buffer = out.buffer
        assert load_params(path, out) is out
        assert out.buffer is buffer
        assert out.buffer.tobytes() == load_params(path).buffer.tobytes()

    def test_another_layout_is_refused_naming_the_file(self, saved):
        path, out = saved
        shapes = out.shapes()
        others = {
            "shape": shapes[:-1] + [(shapes[-1][0], (2,))],
            "order": shapes[1:] + shapes[:1],
            "name": [("other", shapes[0][1])] + shapes[1:],
            "fewer": shapes[:-1],
        }
        for what, layout in others.items():
            other = ParamSet.on_buffer(np.full(sum(math.prod(s) for _, s in layout), 7.0), layout)
            with pytest.raises(CheckpointError, match=f"{path} holds tensors .* not the layout"):
                load_params(path, other)
            assert (other.buffer == 7.0).all(), what  # refused before any value is decoded

    def test_a_mask_file_holding_a_half_is_refused(self, tmp_path):
        path = tmp_path / "mask.bin"
        save_tensors(path, {"fc1.weight": np.array([[1.0, 0.5, 0.0]])})
        with pytest.raises(CheckpointError, match=f"{path}: mask 'fc1.weight' must contain only"):
            load_params(path, Mask({"fc1.weight": np.ones((1, 3))}))
        # a plain ParamSet of the same layout takes any value
        assert load_params(path, ParamSet({"fc1.weight": np.ones((1, 3))}))["fc1.weight"][0, 1] == 0.5


class TestCodecCorruption:
    DAMAGE = [
        (MASK_13, "count off by one", "sets 7 entries, its record says 8"),
        (sparse_13(), "bitmap bit flipped", "sets 8 entries, its record says 7"),
        (MASK_13, "padding bit set", "nonzero padding bits"),
        (sparse_13(), "unknown encoding", "unknown encoding 7"),
        (MASK_13, "truncated bitmap", "truncated .* bitmap of 't'"),
        (sparse_13(), "truncated values", "truncated .* values of 't'"),
        (np.arange(1.0, 5.0), "dense count", "stores 3 values for 4 entries"),
    ]

    @pytest.mark.parametrize("arr, kind, message", DAMAGE, ids=[d[1] for d in DAMAGE])
    def test_damage_is_refused_naming_the_file(self, tmp_path, arr, kind, message):
        path = tmp_path / "t.bin"
        save_tensors(path, {"t": arr})
        path.write_bytes(bytes(corrupt(bytearray(path.read_bytes()), arr, kind)))
        with pytest.raises(CheckpointError, match=message) as info:
            load_tensors(path)
        assert str(path) in str(info.value)

    def test_count_beyond_entries_refused_without_reading_payloads(self, tmp_path):
        path = tmp_path / "t.bin"
        save_tensors(path, {"t": MASK_13})
        blob = bytearray(path.read_bytes())
        struct.pack_into("<Q", blob, record_offset("t", 1) + 1, MASK_13.size + 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="stores 14 values for 13 entries"):
            verify_tensors(path)


def tiny_run_config():
    return SketchConfig(
        run_id="codec",
        arch=MlpArchitecture([6, 16, 3]),
        train=TrainConfig(epochs=1, lr=0.1, momentum=0.9, batch_size=16, seed=5),
        dataset=DatasetSpec(kind="blobs", n_per_class=30, num_classes=3, dim=6,
                            separation=3.0, data_seed=1),
        t_iter=0.2,
        t_end=0.9,
        noise_seed=2,
    )


def file_bytes(root, pattern="*"):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob(pattern)) if p.is_file()}


class TestRunDirectory:
    def test_masks_take_one_bit_per_entry_and_params_shrink(self, tmp_path):
        run = run_sketch(tiny_run_config(), tmp_path / "r")
        for k in range(len(run.rounds)):
            path = tmp_path / "r" / f"round_{k:03d}" / "mask.bin"
            bitmaps = sum(record_bytes(n, m.shape, math.ceil(m.size / 8))
                          for n, m in load_tensors(path).items())
            assert path.stat().st_size <= 9 + bitmaps
        path = tmp_path / "r" / f"round_{len(run.rounds) - 1:03d}" / "params.bin"
        dense = sum(record_bytes(n, a.shape, 8 * a.size) for n, a in load_tensors(path).items())
        assert path.stat().st_size < 9 + dense

    def test_version_one_run_resumes_probes_and_reports_the_same(self, tmp_path, monkeypatch):
        v2, v1 = tmp_path / "v2", tmp_path / "v1"

        def mirrored(real):
            # write each checkpoint as usual, and its in-memory tensors as version 1 under v1/
            def save(path, tensors):
                real(path, tensors)
                copy = v1 / path.relative_to(v2)
                copy.parent.mkdir(parents=True, exist_ok=True)
                write_v1(copy, {n: tensors[n] for n in tensors})
            return save

        monkeypatch.setattr(sketch_mod, "save_params", mirrored(save_params))
        monkeypatch.setattr(sketch_mod, "save_tensors", mirrored(save_tensors))
        run = run_sketch(tiny_run_config(), v2)
        monkeypatch.undo()
        shutil.copytree(v2, v1, dirs_exist_ok=True, ignore=shutil.ignore_patterns("*.bin"))
        assert file_bytes(v1).keys() == file_bytes(v2).keys()
        assert all(blob[4] == 1 for blob in file_bytes(v1, "*.bin").values())
        # the version-1 copy keeps the pruned weights' signed zeros that version 2 drops
        last = f"round_{len(run.rounds) - 1:03d}/params.bin"
        off_mask = [a[a == 0.0] for a in load_tensors(v1 / last).values()]
        assert any(np.signbit(z).any() for z in off_mask)

        before = {p: p.stat().st_mtime_ns for p in v1.rglob("*")}
        resume(v1)
        assert {p: p.stat().st_mtime_ns for p in v1.rglob("*")} == before
        for run_dir in (v1, v2):
            assert cli_main(["probe", "--run", str(run_dir)]) == 0
            assert cli_main(["report", "--run", str(run_dir)]) == 0
        assert (v1 / "probes.json").read_bytes() == (v2 / "probes.json").read_bytes()
        assert file_bytes(v1, "*.csv") == file_bytes(v2, "*.csv")
        assert file_bytes(v1, "*.txt") == file_bytes(v2, "*.txt")
