import contextlib
import functools
import io
import json
import re
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import matroidal.cli
from matroidal import verify_radical_cert
from matroidal.cli import main

V42 = "n=4\nx1 x2\nx1 x3\nx1 x4\nx2 x3\nx2 x4\nx3 x4\n"
K22 = "n=4\nx1 x3\nx1 x4\nx2 x3\nx2 x4\n"
# A (5,3) ideal that is neither Veronese nor a block product.
S53 = "n=5\nx1 x2 x3\nx1 x2 x4\nx1 x3 x4\nx2 x3 x5\nx2 x4 x5\nx3 x4 x5\n"
NOT_MATROIDAL = "n=4\nx1 x2\nx3 x4\n"


@pytest.fixture
def v42(tmp_path):
    path = tmp_path / "v42.txt"
    path.write_text(V42)
    return str(path)


@pytest.fixture
def k22(tmp_path):
    path = tmp_path / "k22.txt"
    path.write_text(K22)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_check(capsys, v42, tmp_path):
    code, payload = run_json(capsys, "check", v42)
    assert code == 0
    assert payload == {"matroidal": True, "n": 4, "d": 2, "generators": 6}
    bad = tmp_path / "bad.txt"
    bad.write_text(NOT_MATROIDAL)
    code, payload = run_json(capsys, "check", str(bad))
    assert code == 1
    assert payload["failure"] == "exchange"


def test_analyze(capsys, v42):
    code, payload = run_json(capsys, "analyze", v42)
    assert code == 0
    assert payload == {
        "n": 4,
        "d": 2,
        "q": 2,
        "pd": 2,
        "depth": 1,
        "height": 3,
        "cohen_macaulay": True,
    }


def test_analyze_requires_full_support(capsys, tmp_path):
    partial = tmp_path / "partial.txt"
    partial.write_text("n=4\nx1 x2\nx2 x3\n")
    code, _ = run(capsys, "analyze", str(partial))
    assert code == 1


def test_decompose(capsys, k22):
    code, payload = run_json(capsys, "decompose", k22)
    assert code == 0
    assert payload == {
        "primes": [[1, 2], [3, 4]],
        "height": 2,
        "unmixed": True,
        "signature": [2, 2],
    }


def test_partition(capsys, k22):
    code, payload = run_json(capsys, "partition", k22)
    assert code == 0
    assert payload == {"parts": [[1, 2], [3, 4]], "signature": [2, 2]}


def test_partition_rejects_degree3(capsys, tmp_path):
    cubic = tmp_path / "cubic.txt"
    cubic.write_text("n=3\nx1 x2 x3\n")
    code, _ = run(capsys, "partition", str(cubic))
    assert code == 1


def test_cert_and_verify_roundtrip(capsys, v42, tmp_path):
    code, doc = run_json(capsys, "cert", v42)
    assert code == 0
    assert doc["construction"] == "veronese"
    assert doc["verified_sv"] is True
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "verify-cert", v42, str(cert_path))
    assert code == 0
    assert payload["verified_sv"] is True
    code, payload = run_json(
        capsys, "verify-cert", v42, str(cert_path), "--oracle", "--cap", "8"
    )
    assert code == 0
    assert payload["oracle"]["verified"] is True
    assert payload["oracle"]["method"] == "layered"
    assert payload["oracle"]["powers"]["x1*x2"] == 1


def test_verify_cert_detects_tampering(capsys, v42, tmp_path):
    _, doc = run_json(capsys, "cert", v42)
    doc["layers"][1], doc["layers"][2] = doc["layers"][2], doc["layers"][1]
    cert_path = tmp_path / "tampered.json"
    cert_path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "verify-cert", v42, str(cert_path))
    assert code == 1
    assert payload["failure"] == "pair"


def test_cert_search_inconclusive(capsys, v42):
    code, payload = run_json(
        capsys, "cert", v42, "--construction", "search", "--size", "2"
    )
    assert code == 2
    assert payload == {
        "found": False,
        "status": "exhausted",
        "nodes": payload["nodes"],
        "target_size": 2,
    }


def test_cert_search_budget_exceeded_on_large_ideal(capsys, tmp_path):
    # V(10,5) has 252 generators, more than a per-generator recursion fits.
    lines = [" ".join(f"x{v}" for v in c) for c in combinations(range(1, 11), 5)]
    path = tmp_path / "v10_5.txt"
    path.write_text("n=10\n" + "\n".join(lines) + "\n")
    code, payload = run_json(
        capsys, "cert", str(path), "--construction", "search", "--budget", "2000"
    )
    assert code == 2
    assert payload == {
        "found": False,
        "status": "budget_exceeded",
        "nodes": 2001,
        "target_size": 6,
    }


def test_negative_budget_is_a_usage_error(capsys, v42):
    code = main(["cert", v42, "--construction", "search", "--budget", "-5"])
    assert code == 3
    assert "budget must be nonnegative" in capsys.readouterr().err
    assert main(["scan", "--n", "5", "--d", "3", "--budget", "-1"]) == 3


@pytest.mark.parametrize(
    "construction",
    [(), ("--construction", "auto"), ("--construction", "veronese")],
)
def test_size_outside_search_is_a_usage_error(capsys, v42, construction):
    # A construction builds its own layering, so it has no size to honour.
    code = main(["cert", v42, *construction, "--size", "2", "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "--size applies only to --construction search" in captured.err


def test_size_with_search_targets_that_size(capsys, v42):
    code, doc = run_json(
        capsys, "cert", v42, "--construction", "search", "--size", "4"
    )
    assert code == 0
    assert doc["construction"] == "search"
    assert len(doc["sums"]) == 4
    assert doc["verified_sv"] is True


def test_search_size_below_one_is_a_usage_error(capsys, v42):
    for size in ("0", "-2"):
        code = main(["cert", v42, "--construction", "search", "--size", size])
        assert code == 3
        assert "search size must be at least 1" in capsys.readouterr().err


@pytest.fixture
def v42_cert(capsys, v42, tmp_path):
    _, doc = run_json(capsys, "cert", v42)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_oracle_cap_below_one_is_a_usage_error(capsys, v42, v42_cert):
    for cap in ("0", "-3"):
        code = main(["verify-cert", v42, v42_cert, "--oracle", "--cap", cap])
        assert code == 3
        assert "oracle cap must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change",
    [
        {"layers": [["x1*x2"], "x1*x3"]},
        {"layers": [["x1*x2"], ["bogus"]]},
        {"layers": 5},
        {"layers": None, "sums": 7},
        {"layers": None, "sums": None},
        {"target_ideal": {"n": 4, "generators": "x1*x2"}},
        {"target_ideal": {"n": 4.9, "generators": ["x1*x2"]}},
        {"target_ideal": {"n": "4", "generators": ["x1*x2"]}},
        {"target_ideal": {"n": True, "generators": ["x1*x2"]}},
        {"layers": None, "sums": ["bogus"]},
    ],
)
def test_verify_cert_malformed_document_is_a_usage_error(
    capsys, v42, v42_cert, tmp_path, change
):
    with open(v42_cert) as f:
        doc = json.load(f)
    doc.update(change)
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    code = main(["verify-cert", v42, str(path)])
    assert code == 3
    assert "malformed certificate document" in capsys.readouterr().err


def test_oracle_pair_budget_overrun_is_inconclusive(
    capsys, monkeypatch, v42, v42_cert
):
    monkeypatch.setattr(
        matroidal.cli,
        "verify_radical_cert",
        functools.partial(verify_radical_cert, max_pairs=0),
    )
    code, payload = run_json(capsys, "verify-cert", v42, v42_cert, "--oracle")
    assert code == 2
    assert payload["verified_sv"] is True
    assert payload["oracle"] == {
        "verified": False,
        "reason": "pair_budget_exceeded",
        "cap": 8,
        "message": "pair budget 0 exceeded",
    }


def test_cert_product_construction(capsys, k22, tmp_path):
    code, doc = run_json(capsys, "cert", k22, "--construction", "product")
    assert code == 0
    assert doc["construction"] == "product"
    assert doc["layers"] == [["x1*x3"], ["x1*x4", "x2*x3"], ["x2*x4"]]
    assert doc["sums"] == ["x1*x3", "x2*x3+x1*x4", "x2*x4"]
    assert doc["verified_sv"] is True
    # The layering is checked without the oracle.
    path = tmp_path / "product.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "verify-cert", k22, str(path))
    assert code == 0
    assert payload["verified_sv"] is True


V42_SUMS = ["x1*x2", "x1*x3+x2*x3", "x1*x4+x2*x4+x3*x4"]
K22_SUMS = ["x1*x3", "x2*x3+x1*x4", "x2*x4"]
S53_SUMS = ["x1*x2*x3", "x1*x3*x4+x2*x4*x5", "x1*x2*x4+x2*x3*x5+x3*x4*x5"]


IDEALS = {"v42": V42, "k22": K22, "s53": S53}


@pytest.mark.parametrize(
    "name, choice, expected",
    [
        ("v42", "auto", ("veronese", V42_SUMS)),
        ("v42", "veronese", ("veronese", V42_SUMS)),
        ("v42", "product", "not a variable block product"),
        ("v42", "degree2", ("degree2", V42_SUMS)),
        ("v42", "search", ("search", ["x1*x2", "x3*x4", "x1*x3+x2*x3+x1*x4+x2*x4"])),
        ("k22", "auto", ("product", K22_SUMS)),
        ("k22", "veronese", "not a square-free Veronese ideal"),
        ("k22", "product", ("product", K22_SUMS)),
        ("k22", "degree2", ("degree2", K22_SUMS)),
        ("k22", "search", ("search", ["x1*x3", "x2*x4", "x2*x3+x1*x4"])),
        ("s53", "auto", ("search", S53_SUMS)),
        ("s53", "veronese", "not a square-free Veronese ideal"),
        ("s53", "product", "not a variable block product"),
        ("s53", "degree2", "degree is not 2"),
        ("s53", "search", ("search", S53_SUMS)),
    ],
)
def test_cert_every_construction_choice(capsys, tmp_path, name, choice, expected):
    path = tmp_path / f"{name}.txt"
    path.write_text(IDEALS[name])
    code, doc = run_json(capsys, "cert", str(path), "--construction", choice)
    if isinstance(expected, str):
        assert (code, doc) == (1, {"error": expected})
        return
    construction, sums = expected
    assert code == 0
    assert doc["construction"] == construction
    assert doc["sums"] == sums
    assert doc["verified_sv"] is True


@pytest.mark.parametrize("choice", ["veronese", "product", "degree2"])
def test_budget_without_a_search_is_a_usage_error(capsys, v42, choice):
    # These constructions never search, so they have no budget to honour.
    code = main(["cert", v42, "--construction", choice, "--budget", "0", "--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "--budget applies only to --construction auto or search" in captured.err


def test_auto_spends_its_budget_only_on_the_search_fallback(capsys, v42, tmp_path):
    code, doc = run_json(capsys, "cert", v42, "--budget", "0")
    assert (code, doc["construction"]) == (0, "veronese")
    path = tmp_path / "s53.txt"
    path.write_text(S53)
    code, payload = run_json(capsys, "cert", str(path), "--budget", "0")
    assert code == 2
    assert payload == {
        "found": False,
        "status": "budget_exceeded",
        "nodes": 1,
        "target_size": 3,
    }


def test_verify_cert_sum_outside_target_fails_the_check(capsys, v42, v42_cert):
    # A sum that parses but has a term outside the ideal is a failed check,
    # not a malformed document.
    with open(v42_cert) as f:
        doc = json.load(f)
    doc.update({"layers": None, "sums": ["x1*x2", "x1"]})
    with open(v42_cert, "w") as f:
        json.dump(doc, f)
    code, payload = run_json(capsys, "verify-cert", v42, v42_cert)
    assert code == 1
    assert payload == {"error": "certificate term lies outside the target ideal"}


def test_oracle_names_the_method_of_each_verdict(capsys, tmp_path):
    # "not verified" only ever comes from the check against one Groebner
    # basis of all the sums.
    ideal = tmp_path / "x1x2.txt"
    ideal.write_text("n=2\nx1\nx2\n")
    cert = tmp_path / "x1x2.cert.json"
    cases = (
        (["x1+x2"], 2, (False, "groebner")),
        (["x1", "x2"], 0, (True, "layered")),
    )
    for sums, code, verdict in cases:
        doc = {"target_ideal": {"n": 2}, "layers": None, "sums": sums}
        cert.write_text(json.dumps(doc))
        got, payload = run_json(
            capsys, "verify-cert", str(ideal), str(cert), "--oracle"
        )
        assert got == code
        assert (payload["oracle"]["verified"], payload["oracle"]["method"]) == verdict


def test_enumerate(capsys):
    code, payload = run_json(capsys, "enumerate", "--n", "3", "--d", "2")
    assert code == 0
    assert payload["count"] == 4
    assert ["x1*x2", "x1*x3", "x2*x3"] in payload["ideals"]


def test_scan(capsys):
    code, payload = run_json(capsys, "scan", "--n", "4", "--d", "2", "--budget", "500")
    assert code == 0
    assert payload["total_ideals"] == 4  # orbit representatives
    assert payload["certified"] == 4


def test_usage_errors(capsys):
    assert main(["bogus"]) == 3
    assert main(["enumerate", "--n", "10", "--d", "5"]) == 3
    assert main(["check", "/nonexistent/file.txt"]) == 3


_GOOD_LINES = V42.splitlines()[1:]
_BAD_HEADERS = ["", "m=4", "n=", "n=-1", "n=0", "n=65", "n=4.0", "n=four", "x1 x2"]
_OUT_OF_RANGE = ["x0", "x5", "x65", "x" + "9" * 30, "x" + "1" * 5000]


def _repeated_variable():
    # x_v twice in one generator: a square, which no square-free file holds.
    return st.tuples(
        st.integers(1, 4), st.lists(st.integers(1, 4), max_size=2)
    ).map(lambda t: " ".join(f"x{v}" for v in (t[0], *t[1], t[0])))


def _bad_token():
    return st.text("xyn01234*=.-,", min_size=1, max_size=6).filter(
        lambda t: re.fullmatch(r"x\d+", t) is None
    )


@st.composite
def _malformed_ideal_file(draw):
    lines = list(_GOOD_LINES)
    if draw(st.booleans()):
        header = draw(st.sampled_from(_BAD_HEADERS))
    else:
        header = "n=4"
        bad = draw(
            st.one_of(
                _repeated_variable(),
                _bad_token(),
                st.sampled_from(_OUT_OF_RANGE),
            )
        )
        prefix = draw(st.sampled_from(["", "x1 ", "x2 x3 "]))
        lines.insert(draw(st.integers(0, len(lines))), prefix + bad)
    return "\n".join([header, *lines]) + "\n"


@given(
    text=_malformed_ideal_file(),
    command=st.sampled_from(["check", "analyze", "decompose", "partition", "cert"]),
)
@settings(max_examples=80, deadline=None)
def test_malformed_ideal_files_are_usage_errors(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ideal.txt"
        path.write_text(text)
        err = io.StringIO()
        out = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
            code = main([command, str(path)])
    assert code == 3, (text, out.getvalue())
    assert out.getvalue() == ""
    assert err.getvalue().startswith(f"usage error: cannot read ideal from {path}: ")
    assert "Traceback" not in err.getvalue()


def test_a_repeated_variable_is_a_usage_error(capsys, tmp_path):
    # Read as x1 before, so the file passed as the matroidal ideal (x1).
    path = tmp_path / "square.txt"
    path.write_text("n=1\nx1 x1\n")
    assert main(["check", str(path)]) == 3
    assert "repeated variable x1" in capsys.readouterr().err
