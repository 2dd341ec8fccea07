"""``kernels.c``'s text scan under AddressSanitizer and UBSan.

``json_tokens`` reads untrusted files, and a parity test cannot see an
out-of-bounds read that lands on harmless memory.  This test builds
``kernels.c`` with the production flags plus the sanitizers into a
temporary directory.  It runs ``json_tokens`` in a subprocess, with the
sanitizer runtimes preloaded (ASan refuses to start in a Python not built
with it otherwise), on every prefix of one ground-truth file and one
prediction file.  Each prefix and each output buffer is its own block of
exactly its size from the sanitized ``malloc``, so a read or write one
byte past any of them is reported.  Any report or a nonzero exit fails
the test, as do results that differ from the production library's.  It
skips only when ``cc`` or a sanitizer runtime is missing, and says which.
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import vecmap._kernels as kernels
from vecmap import sceneio
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


def test_scan_every_prefix_under_sanitizers(tmp_path):
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler (cc) on PATH")
    preload = _runtimes(cc)
    lib = tmp_path / "kernels-sanitized.so"
    build = subprocess.run([cc, *kernels.FLAGS, *SANITIZE, "-o", str(lib), str(kernels.SOURCE),
                            "-lm"], capture_output=True, text=True)
    assert build.returncode == 0, build.stderr
    scene = generate_scene(SceneSpec(seed=2, n_ped=1, n_divider=1, n_boundary=0, n_points=3))
    files = [tmp_path / "gt.scene", tmp_path / "pred.scene"]
    sceneio.write_scene(files[0], scene)
    sceneio.write_scene(files[1], scene, perturb(scene, PerturbSpec(seed=2)))
    env = {**os.environ, "LD_PRELOAD": " ".join(preload), "ASAN_OPTIONS": "detect_leaks=0",
           "PYTHONPATH": str(Path(kernels.__file__).parents[2])}
    run = subprocess.run([sys.executable, "-c", SCAN, str(lib), *map(str, files)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert "Sanitizer" not in run.stderr and "runtime error" not in run.stderr, run.stderr
    plain = kernels.load(kernels.build(tmp_path / "plain"))
    assert run.stdout.strip() == _digest(kernels._binders(plain).json_tokens, files)
