"""``kernels.c`` under AddressSanitizer and UBSan.

``json_tokens`` reads untrusted files, and the numeric entries index by
shapes and rows unchecked; a parity test cannot see an out-of-bounds read
that lands on harmless memory.  The module builds ``kernels.c`` once with
the production flags plus the sanitizers into a temporary directory.  Each
test runs the entries in a subprocess, with the sanitizer runtimes
preloaded (ASan refuses to start in a Python not built with it otherwise):
``json_tokens`` on every prefix of one ground-truth file and one prediction
file, and the Manhattan, Chamfer, loss and Adam entries at their edge
shapes.  Every input, output and scratch buffer is its own block of
exactly its size from the sanitized ``malloc``, so a read or write one
byte past any of them is reported.  Any report or a nonzero exit fails a
test, as do results that differ from the production library's.  The tests
skip only when ``cc`` or a sanitizer runtime is missing, and say which.
"""

import hashlib
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vecmap._kernels as kernels
from vecmap import sceneio
from vecmap.geometry import ElementKind, permutation_group
from vecmap.scenegen import PerturbSpec, SceneSpec, generate_scene, perturb

SANITIZE = ("-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
            "-fno-omit-frame-pointer")

#: Run as ``python -c SCAN LIBRARY FILE...``: prints the digest of every
#: prefix's scan, as ``_digest`` takes it.
SCAN = """
import ctypes, hashlib, sys
from pathlib import Path
import vecmap._kernels as kernels

dll = kernels.load(Path(sys.argv[1]))
libc = ctypes.CDLL(None)  # malloc and free: the sanitizer's, preloaded
libc.malloc.argtypes, libc.malloc.restype = [ctypes.c_size_t], ctypes.c_void_p
libc.free.argtypes, libc.free.restype = [ctypes.c_void_p], None
digest = hashlib.sha256()
for path in sys.argv[2:]:
    data = Path(path).read_bytes()
    for cut in range(len(data) + 1):
        text, ncap = data[:cut], cut // 2 + 1  # the binder's caps
        blocks = [libc.malloc(max(size, 1)) for size in (cut, 8 * ncap, cut)]
        ctypes.memmove(blocks[0], text, cut)
        size = ctypes.c_int64()
        count = dll.json_tokens(ctypes.cast(blocks[0], ctypes.c_char_p), cut, blocks[1],
                                ncap, blocks[2], cut, ctypes.byref(size))
        digest.update(count.to_bytes(8, "little", signed=True))
        if count >= 0:
            digest.update(ctypes.string_at(blocks[2], size.value))
            digest.update(ctypes.string_at(blocks[1], 8 * count))
        for block in blocks:
            libc.free(block)
print(digest.hexdigest())
"""

#: Run as ``python -c NUMERIC LIBRARY CASES OUT``: runs each pickled case of
#: ``_numeric_cases`` on the library's entry, every array in its own
#: exact-size block, and pickles the outputs in the order ``_want`` gives them.
NUMERIC = """
import ctypes, pickle, sys
from pathlib import Path
import numpy as np
import vecmap._kernels as kernels
from vecmap._kernels import _pure

dll = kernels.load(Path(sys.argv[1]))
libc = ctypes.CDLL(None)  # malloc and free: the sanitizer's, preloaded
libc.malloc.argtypes, libc.malloc.restype = [ctypes.c_size_t], ctypes.c_void_p
libc.free.argtypes, libc.free.restype = [ctypes.c_void_p], None

def call(entry, *args):
    # The entry's result, and each array argument's contents after the call.
    blocks = {}
    for i, a in enumerate(args):
        if isinstance(a, np.ndarray):
            blocks[i] = libc.malloc(max(a.nbytes, 1))
            ctypes.memmove(blocks[i], a.ctypes.data, a.nbytes)
    result = entry(*(blocks.get(i, a) for i, a in enumerate(args)))
    after = {i: np.frombuffer(ctypes.string_at(b, args[i].nbytes), args[i].dtype)
             .reshape(args[i].shape) for i, b in blocks.items()}
    for b in blocks.values():
        libc.free(b)
    return result, after

def nan(*shape):  # outputs and scratch: an entry that reads one unwritten shows
    return np.full(shape, np.nan)

outputs = []
for entry, c in pickle.loads(Path(sys.argv[2]).read_bytes()):
    if entry == "manhattan":
        (P, n), G, K = c["pred"].shape[:2], len(c["gts"]), len(c["perms"])
        S = (P + 7) // 8 * 8
        args = (c["pred"], c["gts"], c["perms"], P, G, K, n, nan(P, G),
                np.full((P, G), -1), nan(2 * n * S + S))
        _, after = call(dll.manhattan_matrix, *args)
        outputs.append((after[7], after[8]))
    elif entry == "chamfer":
        (P, n), (G, m) = c["a"].shape[:2], c["b"].shape[:2]
        args = (c["a"], c["b"], P, n, G, m, c["cutoff"], nan(P, G), nan(m), nan(4 * (P + G)))
        _, after = call(dll.chamfer_matrix, *args)
        outputs.append((after[7],))
    elif entry == "loss":
        (P, n), M = c["points"].shape[:2], len(c["rows"])
        logs_powers = np.empty((6, P, 3))
        _pure.focal_logs_powers(c["scores"], c["gamma"], logs_powers)
        cls, focal = call(dll.focal_terms, c["scores"], logs_powers, c["rows"], c["classes"],
                          P, M, c["gamma"], c["alpha"], c["lam"], _pure.FOCAL_EPS,
                          nan(P, 3), nan(P, 3), nan(P, 3))
        _, pairs = call(dll.pair_terms, c["points"], c["rows"], c["classes"],
                        kernels._CLOSED_FOR_CLASS, c["aligned"], P, M, n, c["alpha_p2p"],
                        c["beta_dir"], _pure.EDGE_NORM_FLOOR, nan(M), nan(M), nan(P, n, 2),
                        nan(5 * n))
        outputs.append((np.float64(cls), pairs[11], pairs[12], pairs[13], focal[10],
                        focal[11], focal[12]))
    else:  # adam
        x = c["params"]
        _, after = call(dll.adam_step, x, c["grads"], c["m"], c["v"], x.size, c["clip"],
                        c["b1"], c["b2"], c["lr"], c["eps"], c["c1"], c["c2"])
        outputs.append((after[0], after[2], after[3]))
Path(sys.argv[3]).write_bytes(pickle.dumps(outputs))
"""


def _digest(json_tokens, paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        data = Path(path).read_bytes()
        for cut in range(len(data) + 1):
            tokens = json_tokens(data[:cut])
            count = -1 if tokens is None else len(tokens[0])
            digest.update(count.to_bytes(8, "little", signed=True))
            if tokens is not None:
                digest.update(tokens[1] + tokens[0].tobytes())
    return digest.hexdigest()


def _runtimes(cc) -> list[str]:
    """The sanitizer runtimes ``cc`` links, or a skip naming the missing one."""
    paths = []
    for name in ("libasan.so", "libubsan.so"):
        found = subprocess.run([cc, f"-print-file-name={name}"], capture_output=True,
                               text=True).stdout.strip()
        if not os.path.isabs(found) or not os.path.exists(found):
            pytest.skip(f"no {name} for {cc}")
        paths.append(found)
    return paths


@pytest.fixture(scope="module")
def sanitized(tmp_path_factory):
    """(sanitized library, subprocess environment, production library), or a
    skip naming what is missing."""
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH")
    preload = _runtimes(cc)
    tmp = tmp_path_factory.mktemp("sanitized")
    lib = tmp / "kernels-sanitized.so"
    build = subprocess.run([cc, *kernels.FLAGS, *SANITIZE, "-o", str(lib), str(kernels.SOURCE),
                            "-lm"], capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    env = {**os.environ, "LD_PRELOAD": " ".join(preload), "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": str(Path(kernels.__file__).parents[2])}
    return lib, env, kernels.load(kernels.build(tmp / "plain"))


def _run_sanitized(sanitized, script, *args) -> str:
    """Run ``script`` on the sanitized library; its stdout, after checking
    that it exited 0 with no sanitizer report."""
    lib, env, _ = sanitized
    run = subprocess.run([sys.executable, "-c", script, str(lib), *map(str, args)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "Sanitizer" not in run.stderr and "runtime error" not in run.stderr, run.stderr
    return run.stdout


def test_scan_every_prefix_under_sanitizers(tmp_path, sanitized):
    scene = generate_scene(SceneSpec(seed=2, n_ped=1, n_divider=1, n_boundary=0, n_points=3))
    files = [tmp_path / "gt.scene", tmp_path / "pred.scene"]
    sceneio.write_scene(files[0], scene)
    sceneio.write_scene(files[1], scene, perturb(scene, PerturbSpec(seed=2)))
    got = _run_sanitized(sanitized, SCAN, *files)
    assert got.strip() == _digest(kernels._binders(sanitized[2]).json_tokens, files)


def _numeric_cases() -> list[tuple[str, dict]]:
    """The numeric entries' edge shapes: Manhattan at P = 0, 1 and around
    the 8-lane pad (n = G = K = 1, and one polygon group), Chamfer of
    single points with the cutoff off and on, the loss with no pair and
    with every prediction paired, and Adam on one entry."""
    rng = np.random.default_rng(5)
    cases = []
    for P in (0, 1, 7, 8, 9):
        cases.append(("manhattan", dict(pred=rng.uniform(size=(P, 1, 2)),
                                        gts=rng.uniform(size=(1, 1, 2)),
                                        perms=np.zeros((1, 1), dtype=np.int64))))
    maps = permutation_group(ElementKind.POLYGON, 3).index_maps()
    cases.append(("manhattan", dict(pred=rng.uniform(size=(9, 3, 2)),
                                    gts=rng.uniform(size=(2, 3, 2)), perms=maps)))
    for cutoff in (np.inf, 0.3):
        cases.append(("chamfer", dict(a=rng.uniform(size=(1, 1, 2)),
                                      b=rng.uniform(size=(1, 1, 2)), cutoff=cutoff)))
        cases.append(("chamfer", dict(a=rng.uniform(size=(3, 1, 2)),
                                      b=rng.uniform(size=(4, 1, 2)), cutoff=cutoff)))
    weights = dict(gamma=2.0, alpha=0.25, lam=2.0, alpha_p2p=5.0, beta_dir=5e-3)
    for P, n, M in ((3, 1, 0), (3, 1, 3), (4, 4, 0), (4, 4, 4)):
        cases.append(("loss", dict(points=rng.uniform(size=(P, n, 2)),
                                   scores=rng.uniform(size=(P, 3)),
                                   rows=np.arange(M, dtype=np.int64),
                                   classes=np.arange(M, dtype=np.int64) % 3,
                                   aligned=rng.uniform(size=(M, n, 2)), **weights)))
    for clip in (True, False):
        cases.append(("adam", dict(params=rng.uniform(size=1), grads=rng.normal(size=1),
                                   m=rng.normal(size=1), v=rng.uniform(size=1), clip=clip,
                                   b1=0.9, b2=0.999, lr=0.01, eps=1e-8, c1=0.1, c2=0.002)))
    return cases


def _want(binders, entry, c) -> tuple:
    """What the production library's binders give for one case."""
    if entry == "manhattan":
        *_, costs, best, run = binders.manhattan(c["pred"], c["gts"], c["perms"])
        run()
        return costs, best
    if entry == "chamfer":
        *_, out, run = binders.chamfer(c["a"], c["b"], c["cutoff"])
        run()
        return (out,)
    if entry == "loss":
        *_, p2p, dir_, d_points, loss, d_scores, d_logits, run = binders.loss(
            c["points"], c["scores"], c["rows"], c["classes"], c["aligned"], c["gamma"],
            c["alpha"], c["lam"], c["alpha_p2p"], c["beta_dir"])
        return np.float64(run()), p2p, dir_, d_points, loss, d_scores, d_logits
    x, m, v = (c[k].copy() for k in ("params", "m", "v"))
    binders.adam(x, c["grads"], m, v, c["clip"], c["b1"], c["b2"], c["lr"], c["eps"])(
        c["c1"], c["c2"])
    return x, m, v


def test_numeric_entries_at_edge_shapes_under_sanitizers(tmp_path, sanitized):
    cases = _numeric_cases()
    (tmp_path / "cases.pkl").write_bytes(pickle.dumps(cases))
    _run_sanitized(sanitized, NUMERIC, tmp_path / "cases.pkl", tmp_path / "out.pkl")
    got = pickle.loads((tmp_path / "out.pkl").read_bytes())
    binders = kernels._binders(sanitized[2])
    assert len(got) == len(cases)
    for (entry, case), outputs in zip(cases, got):
        want = _want(binders, entry, case)
        assert len(outputs) == len(want)
        for a, b in zip(outputs, want):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b), entry
