"""The scene readers' C token scan against their ``json`` path.

``sceneio`` reads a prediction file that ``write_scene`` produced from
the numbers and layout that ``vecmap._kernels.json_tokens`` returns, and
every other file with ``json``.  These tests hold the two paths to one
behaviour:

- every prediction file ``write_scene`` writes takes the scan, and the
  arrays it gives equal the ``json`` path's bit for bit;
- a seeded sweep of malformed files exits 1 naming the file, with the
  same stderr as a run with the scan switched off;
- the scan never reads past its text or writes past its buffers, and any
  text outside the canonical layout is left to ``json``;
- a seeded sweep of number tokens parses to ``json``'s floats bit for bit.

The scan parses a short decimal as one exact division and any other
number with ``strtod_l`` and a C ``locale_t``, so the process's
``LC_NUMERIC`` cannot change a number.  That holds by construction; no test
switches to a comma-decimal locale, which many systems do not install.
The tests that need the scan build ``kernels.c`` afresh, as the kernel
parity tests do, and skip only when ``cc`` is not on PATH.
"""

import contextlib
import ctypes
import io
import json
import random
import re
import shutil

import numpy as np
import pytest

import vecmap._kernels as kernels
from conftest import ground_truth_readers_agree
from vecmap import sceneio
from vecmap.cli import main
from vecmap.geometry import ElementClass, ElementKind, MapElement, SceneRange
from vecmap.matching import PredictedElement
from vecmap.scenegen import MapScene, PerturbSpec, SceneSpec, generate_scene, perturb


@pytest.fixture(scope="module")
def c_library(tmp_path_factory):
    """``kernels.c`` built afresh and opened by the package's own loader."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler (cc) on PATH")
    return kernels.load(kernels.build(tmp_path_factory.mktemp("kernels")))


@pytest.fixture
def scan(c_library, monkeypatch):
    """The fresh library's ``json_tokens``, patched in for ``sceneio``."""
    json_tokens = kernels._binders(c_library)[3]
    monkeypatch.setattr(kernels, "json_tokens", json_tokens)
    return json_tokens


def _reads(path):
    """Everything both readers give for ``path``, as comparable values."""
    if "pred" in path.name:
        sr, arrays = sceneio.read_predictions(path)
        return sr, arrays.points.shape, arrays.points.tobytes(), arrays.scores.tobytes()
    scene = sceneio.read_scene(path)
    return scene.range, scene.n_points, [
        (el.element_class, el.kind, el.points.shape, el.points.tobytes())
        for el in scene.elements
    ]


def _odd_numbers_scene():
    """A scene whose files hold -0.0, exponent forms and subnormals."""
    sr = SceneRange(-0.0, 30.0, -30.0, 5e-324)
    line = np.array([[-0.0, 1.5e-05], [5e-324, -1e-320], [1e-07, 2.5e+20]])
    square = np.array([[0.0, 0.0], [1e-320, 0.0], [1.0, -1.0]])
    scene = MapScene(sr, 3, (MapElement(ElementClass.DIVIDER, ElementKind.POLYLINE, line),
                             MapElement(ElementClass.PED_CROSSING, ElementKind.POLYGON, square)))
    preds = [PredictedElement(np.array([-0.0, 5e-324, 1.5e-05]), np.full((3, 2), 0.5)),
             PredictedElement(np.array([1e-320, 1.0, 0.0]), np.zeros((3, 2)))]
    return scene, preds


def _corpus(tmp_path):
    """Files as ``write_scene`` writes them: seeded noisy scenes on two
    ranges, empty files, two-point elements and odd number forms."""
    cases = []
    for seed in range(8):
        sr = SceneRange(-20.0, 20.0, -40.0, 40.0) if seed % 2 else SceneRange()
        scene = generate_scene(SceneSpec(seed=seed, range=sr, n_points=6 + 2 * seed))
        cases.append((scene, perturb(scene, PerturbSpec(
            seed=seed, point_noise_sigma=0.4, drop_prob=0.1, false_positive_count=3,
            score_model="noisy_confidence"))))
    empty = generate_scene(SceneSpec(seed=0, n_ped=0, n_divider=0, n_boundary=0))
    cases.append((empty, []))
    two = generate_scene(SceneSpec(seed=1, n_ped=0, n_points=2))
    cases.append((two, perturb(two, PerturbSpec(seed=2, point_noise_sigma=0.1))))
    cases.append(_odd_numbers_scene())
    paths = []
    for k, (scene, preds) in enumerate(cases):
        gt, pred = tmp_path / f"gt{k}.scene", tmp_path / f"pred{k}.scene"
        sceneio.write_scene(gt, scene)
        sceneio.write_scene(pred, scene, predictions=preds)
        paths += [gt, pred]
    return paths


def test_corpus_takes_the_scan_and_equals_json(tmp_path, scan, monkeypatch):
    paths = _corpus(tmp_path)
    preds = [path for path in paths if "pred" in path.name]
    text = "".join(p.read_text() for p in preds)
    for form in ("-0.0", "1.5e-05", "5e-324", "1e-320"):
        assert form in text, form
    fast, scanned_predictions, hits = {}, sceneio._scanned_predictions, []

    def scanned(path, data):
        # A silent fall back to json would pass the parity check below.
        hits.append(path)
        return scanned_predictions(path, data) or pytest.fail(f"{path} not scanned")

    with monkeypatch.context() as m:
        m.setattr(sceneio, "_scanned_predictions", scanned)
        for path in paths:
            fast[path] = _reads(path)
    assert hits == preds
    monkeypatch.setattr(kernels, "json_tokens", lambda data: None)
    for path in paths:
        assert fast[path] == _reads(path), path
    for path in set(paths) - set(preds):
        assert ground_truth_readers_agree(path) is None, path


#: Literals put in place of one number: none is a finite JSON number, or
#: an int within float range.
_BAD_NUMBERS = ("NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" + "0" * 400, "true",
                "false", "null", '"1.5"')


def _at(doc, where):
    """The object of ``doc`` at ``where``: "", "meta" or "elements[i]"."""
    if where in ("", "meta"):
        return doc[where] if where else doc
    return doc["elements"][int(where[len("elements["):-1])]


def _mutants(text: str, rnd: random.Random) -> dict:
    """Malformed variants of the canonical file ``text``, by name."""
    doc = json.loads(text)
    dump = lambda d: json.dumps(d, indent=1) + "\n"  # noqa: E731
    out = {}
    # Each key dropped or retyped.  With no elements list, or an empty
    # one, a file is an empty scene, which is valid.
    for where in ["", "meta"] + [f"elements[{i}]" for i in range(len(doc["elements"]))]:
        for key in _at(doc, where):
            d = json.loads(text)
            value = _at(d, where).pop(key)
            if key != "elements":
                out[f"{where}.{key} dropped"] = dump(d)
            for retyped in (None, True, "x", [], {}, 1.5, [value]):
                _at(d, where)[key] = retyped
                if (key, retyped) != ("elements", []):
                    out[f"{where}.{key} = {retyped!r}"] = dump(d)
    out["not UTF-8"] = text.replace('"meta"', '"m\udcffeta"', 1)  # a lone 0xff byte
    for huge in (2**62, 10**400):  # too many points for an array, even of no elements
        out[f"no elements, n_points {huge}"] = dump(
            {"meta": {**doc["meta"], "n_points": huge}, "elements": []})
    # Reordered and duplicated keys, each with one bad value.
    n_points = f'"n_points": {doc["meta"]["n_points"]}'
    out["meta reordered, n_points 1"] = text.replace(
        '"range"', '"n_points": 1,\n  "range"', 1).replace(",\n  " + n_points, "", 1)
    out["n_points duplicated, last 1"] = text.replace(n_points, n_points + ', "n_points": 1')
    last = doc["elements"][-1]
    out["last element's points first, one NaN"] = text[:text.rindex("{")] + json.dumps(
        {"points": last["points"][:-1] + [[float("nan"), 0.0]],
         **{k: v for k, v in last.items() if k != "points"}}) + "\n]}\n"
    # Ragged lists.
    for i in range(len(doc["elements"])):
        for name, edit in (("point missing", lambda pts: pts.pop()),
                           ("coordinate missing", lambda pts: pts[1].pop()),
                           ("coordinate added", lambda pts: pts[0].append(0.5)),
                           ("coordinate moved", lambda pts: pts[0].append(pts[1].pop())),
                           ("point nested", lambda pts: pts.__setitem__(1, [pts[1]]))):
            d = json.loads(text)
            edit(d["elements"][i]["points"])
            out[f"elements[{i}] {name}"] = dump(d)
    # One number at a time replaced by a bad literal.
    spans = [m.span() for m in re.finditer(r"-?\d[\d.eE+-]*", text)]
    for start, end in spans[:5] + rnd.sample(spans[5:], 9):
        for bad in _BAD_NUMBERS:
            out[f"{text[start:end]} at {start} -> {bad}"] = text[:start] + bad + text[end:]
    # Truncations, none of which leaves a whole JSON text.
    for cut in sorted(rnd.sample(range(len(text.rstrip())), 30)):
        out[f"truncated to {cut}"] = text[:cut]
    return out


def _eval(gt, pred):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["eval", "--gt", str(gt), "--pred", str(pred)])
    return code, out.getvalue(), err.getvalue()


def test_malformed_sweep_matches_json_path(tmp_path, monkeypatch):
    # Runs on both backends; on the numpy one both runs read with json.
    scene = generate_scene(SceneSpec(seed=3, n_ped=1, n_divider=1, n_boundary=1, n_points=4))
    preds = perturb(scene, PerturbSpec(seed=4, point_noise_sigma=0.2, false_positive_count=1,
                                       score_model="noisy_confidence", pad_to=4))
    gt, pred = tmp_path / "gt.scene", tmp_path / "pred.scene"
    sceneio.write_scene(gt, scene)
    sceneio.write_scene(pred, scene, predictions=preds)
    assert _eval(gt, pred)[0] == 0
    json_tokens, rnd, n_cases = kernels.json_tokens, random.Random(20261019), 0
    for bad in (gt, pred):
        text = bad.read_text()
        for name, mutant in _mutants(text, rnd).items():
            bad.write_bytes(mutant.encode(errors="surrogateescape"))
            got = _eval(gt, pred)
            monkeypatch.setattr(kernels, "json_tokens", lambda data: None)
            want = _eval(gt, pred)
            monkeypatch.setattr(kernels, "json_tokens", json_tokens)
            assert got == want, (bad.name, name)
            code, out, err = got
            assert (code, out) == (1, ""), (bad.name, name, err)
            assert str(bad) in err, (bad.name, name, err)
            if bad is gt:  # the ground-truth readers raise one error, the one eval reports
                assert err == f"error: {ground_truth_readers_agree(gt)}\n", (name, err)
            n_cases += 1
        bad.write_text(text)
    assert n_cases >= 300


def test_valid_non_canonical_files_read_as_with_json(tmp_path, scan, monkeypatch):
    # Valid files write_scene never writes.  Only whitespace may differ for
    # the scan to read one; a scan that took the first of two duplicate
    # keys, say, would read other numbers than json.
    scene = generate_scene(SceneSpec(seed=5, n_points=4))
    pred = tmp_path / "pred.scene"
    sceneio.write_scene(pred, scene, perturb(scene, PerturbSpec(seed=6)))
    text = pred.read_text()
    doc = json.loads(text)
    n = doc["meta"]["n_points"]
    variants = {
        "compact": json.dumps(doc),
        "int coordinate": text.replace(f"{doc['elements'][0]['points'][0][0]!r}", "3", 1),
        "int range": text.replace("-15.0", "-15", 1),
        "duplicate n_points, last wins": text.replace(
            '"n_points": ', f'"n_points": {n + 1}, "n_points": ', 1),
        "reordered element keys": json.dumps({"meta": doc["meta"], "elements": [
            dict(reversed(el.items())) for el in doc["elements"]]}),
        "meta after elements": json.dumps({"elements": doc["elements"], "meta": doc["meta"]}),
    }
    want = _reads(pred)
    for name, variant in variants.items():
        pred.write_text(variant)
        assert _scanned(pred, pred.read_bytes()) == (name == "compact"), name
        with monkeypatch.context() as m:
            m.setattr(kernels, "json_tokens", lambda data: None)
            json_read = _reads(pred)
        assert _reads(pred) == json_read, name
        if name not in ("int coordinate", "int range"):
            assert json_read == want, name


def _small_canonical(tmp_path):
    scene = generate_scene(SceneSpec(seed=2, n_ped=1, n_divider=1, n_boundary=0, n_points=3))
    path = tmp_path / "pred.scene"
    sceneio.write_scene(path, scene, perturb(scene, PerturbSpec(seed=2)))
    return path, path.read_bytes()


def _scanned(path, data):
    """Whether prediction text ``data`` is read from the scan."""
    with contextlib.suppress(sceneio.SceneFormatError):
        return sceneio._scanned_predictions(path, data) is not None
    return False


def _not_canonical(path, data):
    """Whether the scan gives no tokens for ``data``, or tokens that the
    prediction reader then leaves to ``json``."""
    tokens = kernels.json_tokens(data)
    if tokens is not None:
        numbers, skeleton = tokens
        assert numbers.dtype == np.float64 and isinstance(skeleton, bytes)
    return not _scanned(path, data)


def test_scan_rejects_every_prefix_and_bad_token(tmp_path, scan):
    path, data = _small_canonical(tmp_path)
    assert _scanned(path, data)
    for cut in range(len(data.rstrip())):
        assert _not_canonical(path, data[:cut]), cut
    # One whole coordinate token, and the text with another token in its place.
    coordinate = re.compile(rb"(?<=\s)-?\d+\.\d+(?=,)")
    start, end = coordinate.search(data, data.index(b'"points"')).span()
    for bad in (b"1" * 70, b"0." + b"1" * 70, b"+1", b".5", b"-.5", b"01", b"-01.5", b"0x10",
                b"1.", b"1.e5", b"1e", b"1e+", b"-", b"--1", b"1.5.5", "é".encode(), b"\x00",
                b"1\x002"):
        assert scan(bad) is None, bad
        assert _not_canonical(path, data[:start] + bad + data[end:]), bad
    for string in (b'"a\\"b"', b'"a\\u0041"', b'"a\x00b"', b'"a\nb"', b'"a\x1fb"', b'"abc'):
        assert scan(string) is None, string
        assert _not_canonical(path, data.replace(b'"scores"', string, 1)), string
    # Non-ASCII text in a string is copied, and the layout check rejects it.
    numbers, skeleton = scan('"é"'.encode())
    assert len(numbers) == 0 and skeleton == '"é"'.encode()
    assert _not_canonical(path, data.replace(b'"scores"', '"scorés"'.encode(), 1))
    # Whitespace is not layout: a reindented file still takes the scan.
    assert not _not_canonical(path, data.replace(b"\n", b"\n\t \r"))


def test_scan_tokens(scan):
    numbers, skeleton = scan(b' {"a": [1, -0.0, 2.5e-3, 1E+2, 0],\r\n\t"b": {}} ')
    assert skeleton == b'{"a":[i,#,#,#,i],"b":{}}'
    assert numbers.tolist() == [1.0, -0.0, 0.0025, 100.0, 0.0]
    assert np.signbit(numbers[1])
    numbers, skeleton = scan(b"")
    assert len(numbers) == 0 and skeleton == b""
    for literal in (b"5e-324", b"1e-320", b"2.2250738585072014e-308", b"1.7976931348623157e+308",
                    b"0.1", b"123456789012345678901234567890"):
        assert scan(literal)[0][0] == float(literal), literal


def _number_tokens(rnd: random.Random) -> list[str]:
    """Seeded number tokens on both sides of each bound of the scan's exact
    path: 15 or 16 significant digits, 22 or 23 fraction digits, leading and
    trailing zeros, 2^53 +- 1, signs, exponents and float formats."""
    tokens = ["0", "-0", "0.0", "-0.0", "0.000123", "-0.000123", "1e-22", "1e-23",
              "0." + "0" * 21 + "1", "0." + "0" * 22 + "1", "123456789012345", "1234567890123456",
              "0.123456789012345", "0.1234567890123456", "9.99999999999999", "9.999999999999999"]
    for k in (-1, 0, 1):
        tokens += [str(2**53 + k), f"{2**53 + k}.0", f"0.{2**53 + k}", f"{(2**53 + k) / 10:.1f}"]
    for _ in range(6000):
        sig, scale = rnd.randint(1, 18), rnd.randint(0, 25)  # digits, fraction digits
        digits = str(rnd.randrange(10 ** (sig - 1), 10**sig)).rjust(scale + 1, "0")
        whole, frac = digits[: len(digits) - scale], digits[len(digits) - scale:]
        token = whole + ("." + frac + "0" * rnd.randint(0, 2) if scale else "")
        x = rnd.choice((-1, 1)) * 10.0 ** rnd.uniform(-30, 30)
        tokens += [rnd.choice(("", "-")) + token, repr(x), f"{x:.9g}", f"{x:.15g}",
                   f"{x:.16g}", f"{x:.17g}", f"{x:.3f}", f"{x:.12f}",
                   f"{x:.{rnd.randint(1, 20)}e}".replace("e", rnd.choice("eE"), 1)]
    return [t for t in tokens if len(t) <= 31]


def test_scan_numbers_equal_json_bit_for_bit(scan):
    # The scan's exact path and strtod_l against json's float, as bytes:
    # -0.0 and the last ulp count.
    tokens = _number_tokens(random.Random(20261019))
    for edge in ("1234567890123456", "0." + "0" * 22 + "1", str(2**53 + 1), "1e-23"):
        assert edge in tokens
    numbers, skeleton = scan(("[" + ",".join(tokens) + "]").encode())
    # parse_int=float, so that "-0" is -0.0 here too, not int 0.
    want = np.array(json.loads("[" + ",".join(tokens) + "]", parse_int=float))
    assert numbers.tobytes() == want.tobytes()
    kinds = "".join("#" if set(t) & set(".eE") else "i" for t in tokens)
    assert skeleton == ("[" + ",".join(kinds) + "]").encode()
    # Outside JSON's grammar, or over 31 bytes.
    for bad in ("1-2", "1+2", "1e5e5", "1.5e5.2", "1..5", "1.5.", "0e", "1E+-5", "1e-", "00",
                "-00", "-0.", "0.e1", "+0", "1.0" + "0" * 29, "-" + "1" * 31, "1e5-"):
        assert scan(bad.encode()) is None, bad
    assert scan(("1." + "0" * 29).encode())[0][0] == 1.0  # 31 bytes


def test_scan_stays_within_its_buffers(c_library):
    """Raw calls with caps smaller than the text needs: the scan stops
    with -1 and writes no byte past either cap, and it reads ``len``
    bytes of a longer buffer only."""
    text = b'[1.5, 22, "abc", {}]'
    for ncap in range(3):
        for scap in range(len(text)):
            numbers = np.full(4, 7.0)
            skeleton = ctypes.create_string_buffer(b"\xee" * 32, 32)
            size = ctypes.c_int64(-5)
            got = c_library.json_tokens(text, len(text), numbers.ctypes.data, ncap,
                                        skeleton, scap, ctypes.byref(size))
            needs_more = ncap < 2 or scap < len(b'[#,i,"abc",{}]')
            assert got == (-1 if needs_more else 2), (ncap, scap)
            assert (numbers[ncap:] == 7.0).all(), (ncap, scap)
            assert skeleton.raw[scap:] == b"\xee" * (32 - scap), (ncap, scap)
    numbers, skeleton, size = np.zeros(4), ctypes.create_string_buffer(16), ctypes.c_int64()
    for data, length, want in ((b"123456", 3, 123.0), (b"-1.25e+7", 5, -1.25), (b'"ab"', 3, None)):
        got = c_library.json_tokens(data, length, numbers.ctypes.data, 4, skeleton, 16,
                                    ctypes.byref(size))
        assert (got, numbers[0] if got == 1 else None) == ((1, want) if want else (-1, None))
