import contextlib
import functools
import io
import json
import re
import tempfile
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import matroidal.cli
import matroidal.matroids
import matroidal.svrank
from matroidal import enumerate_matroidal, mono_vars, verify_radical_cert
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
    code, payload = run_json(capsys, "analyze", str(partial))
    assert code == 1
    assert payload == {"error": "support must be all of x1..xn"}


def test_analyze_names_the_exchange_failure(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(NOT_MATROIDAL)
    code, payload = run_json(capsys, "analyze", str(bad))
    assert code == 1
    assert payload == {
        "error": "not a matroidal ideal (exchange): "
        "B1=x1*x2, B2=x3*x4, x=x1: no y in B2-B1 repairs the exchange"
    }


def test_decompose(capsys, k22):
    code, payload = run_json(capsys, "decompose", k22)
    assert code == 0
    assert payload == {
        "primes": [[1, 2], [3, 4]],
        "height": 2,
        "unmixed": True,
        "signature": [2, 2],
    }


def test_decompose_checks_its_file_once(capsys, monkeypatch, k22, tmp_path):
    # One completion map for a matroidal file, and no exchange witness
    # scan for one that is not: its primes come from the DFS.
    builds, scans = [], []
    completions = matroidal.matroids._completions
    scan = matroidal.matroids._first_exchange_failure
    monkeypatch.setattr(
        matroidal.matroids, "_completions", lambda gens: builds.append(gens) or completions(gens)
    )
    monkeypatch.setattr(
        matroidal.matroids, "_first_exchange_failure", lambda gens: scans.append(gens) or scan(gens)
    )
    code, payload = run_json(capsys, "decompose", k22)
    assert (code, payload["signature"], len(builds), scans) == (0, [2, 2], 1, [])
    bad = tmp_path / "bad.txt"
    bad.write_text(NOT_MATROIDAL)
    builds.clear()
    code, payload = run_json(capsys, "decompose", str(bad))
    assert code == 0
    assert payload == {"primes": [[1, 3], [1, 4], [2, 3], [2, 4]], "height": 2, "unmixed": True}
    assert (len(builds), scans) == (1, [])


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


def test_verify_cert_checks_the_layering_once(capsys, v42, v42_cert, monkeypatch):
    calls = []
    verify = matroidal.svrank.verify_sv

    def counted(partition):
        calls.append(partition)
        return verify(partition)

    monkeypatch.setattr(matroidal.svrank, "verify_sv", counted)
    monkeypatch.setattr(matroidal.cli, "verify_sv", counted)
    code, payload = run_json(capsys, "verify-cert", v42, v42_cert, "--oracle")
    assert (code, payload["verified_sv"], payload["oracle"]["verified"]) == (0, True, True)
    assert len(calls) == 1


def test_cert_checks_the_layering_once(capsys, tmp_path, monkeypatch):
    # The ladder's layering has passed verify_sv; the document reuses that
    # verdict instead of checking the 924 generators of V(12,6) again.
    lines = [" ".join(f"x{v}" for v in c) for c in combinations(range(1, 13), 6)]
    path = tmp_path / "v126.txt"
    path.write_text("n=12\n" + "\n".join(lines) + "\n")
    calls = []
    verify = matroidal.svrank.verify_sv

    def counted(partition):
        calls.append(partition)
        return verify(partition)

    monkeypatch.setattr(matroidal.svrank, "verify_sv", counted)
    monkeypatch.setattr(matroidal.cli, "verify_sv", counted)
    code, payload = run_json(capsys, "cert", str(path))
    assert (code, payload["construction"], payload["verified_sv"]) == (0, "veronese", True)
    assert [len(layer) for layer in payload["layers"]] == [1, 6, 21, 56, 126, 252, 462]
    assert len(calls) == 1


def test_verify_cert_detects_tampering(capsys, v42, tmp_path):
    _, doc = run_json(capsys, "cert", v42)
    doc["layers"][1], doc["layers"][2] = doc["layers"][2], doc["layers"][1]
    cert_path = tmp_path / "tampered.json"
    cert_path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "verify-cert", v42, str(cert_path))
    assert code == 1
    assert payload["failure"] == "pair"


def test_check_writes_the_mixed_degree_witness_as_monomials(capsys, tmp_path):
    mixed = tmp_path / "mixed.txt"
    mixed.write_text("n=3\nx1\nx2 x3\n")
    code, out = run(capsys, "check", str(mixed))
    assert code == 1
    assert out == "not matroidal (mixed_degrees): x1, x2*x3\n"
    code, payload = run_json(capsys, "check", str(mixed))
    assert code == 1
    assert payload["failure"] == "mixed_degrees"
    assert payload["witness"] == "x1, x2*x3"


# Edits of the V(4,2) layers [x1*x2], [x1*x3, x2*x3], [x1*x4, x2*x4, x3*x4].
@pytest.mark.parametrize(
    "layers, failure, witness",
    [
        (
            [["x1*x2"], ["x1*x3", "x2*x3", "x1*x4"], ["x2*x4", "x3*x4"]],
            "pair",
            "layer 1, x1*x3, x1*x4",
        ),
        (
            [["x1*x2"], ["x1*x3", "x2*x3"], ["x1*x4", "x2*x4", "x3*x4", "x2*x3"]],
            "overlap",
            "layer 2, x2*x3",
        ),
        (
            [["x1*x2"], ["x1*x3", "x2*x3"], ["x1*x4", "x2*x4", "x1*x2*x3"]],
            "union_mismatch",
            "missing [x3*x4]; extra [x1*x2*x3]",
        ),
    ],
)
def test_verify_cert_writes_the_witness_as_monomials(
    capsys, v42, v42_cert, tmp_path, layers, failure, witness
):
    doc = json.loads(Path(v42_cert).read_text())
    doc["layers"] = layers
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    code, out = run(capsys, "verify-cert", v42, str(path))
    assert code == 1
    assert out == f"sv check failed ({failure}): {witness}\n"
    code, payload = run_json(capsys, "verify-cert", v42, str(path))
    assert code == 1
    assert (payload["failure"], payload["witness"]) == (failure, witness)


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
    # 1001 too: the power loop is linear in the cap, so the CLI bounds it.
    for cap in ("0", "-3", "1001"):
        code = main(["verify-cert", v42, v42_cert, "--oracle", "--cap", cap])
        assert code == 3
        err = capsys.readouterr().err
        assert f"oracle cap must be in 1..1000, got {cap}" in err
        assert "Traceback" not in err
    assert main(["verify-cert", v42, v42_cert, "--oracle", "--cap", "1000"]) == 0


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
        {"layers": None, "sums": ["1/0*x1"]},
        {"layers": None, "target_ideal": {"n": 4, "generators": 5}},
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


@pytest.mark.parametrize(
    "change, flags, error",
    [
        ({"layers": None, "sums": []}, (), "certificate needs at least one polynomial"),
        (
            {"layers": None, "sums": []},
            ("--oracle",),
            "certificate needs at least one polynomial",
        ),
        (
            {"layers": None, "target_ideal": {"n": 4, "generators": ["x1*x2"]}},
            ("--oracle",),
            "certificate target differs from the ideal file",
        ),
        (
            {"target_ideal": {"n": 4, "generators": ["x1*x2"]}},
            (),
            "certificate target differs from the ideal file",
        ),
    ],
)
def test_verify_cert_refusal_fails_the_check(
    capsys, v42, v42_cert, tmp_path, change, flags, error
):
    doc = json.loads(Path(v42_cert).read_text())
    doc.update(change)
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    code, payload = run_json(capsys, "verify-cert", v42, str(path), *flags)
    assert (code, payload) == (1, {"error": error})


def test_sums_only_document_with_its_generators_is_checked(capsys, v42, v42_cert):
    doc = json.loads(Path(v42_cert).read_text())
    doc["layers"] = None
    Path(v42_cert).write_text(json.dumps(doc))
    code, payload = run_json(capsys, "verify-cert", v42, v42_cert, "--oracle")
    assert code == 0
    assert (payload["verified_sv"], payload["oracle"]["verified"]) == (False, True)


# The V(4,2) layer sums are x1*x2, x1*x3+x2*x3 and x1*x4+x2*x4+x3*x4.
@pytest.mark.parametrize(
    "sums, code, payload",
    [
        (["x1*x2", "x3*x4"], 1, {"error": "certificate sums differ from its layer sums"}),
        (["x1*x2", "x2*x3+x1*x3", "x3*x4+x1*x4+x2*x4"], 0, None),
    ],
)
def test_verify_cert_holds_a_layered_document_to_its_sums(
    capsys, v42, v42_cert, sums, code, payload
):
    doc = json.loads(Path(v42_cert).read_text())
    doc["sums"] = sums
    Path(v42_cert).write_text(json.dumps(doc))
    got, out = run_json(capsys, "verify-cert", v42, v42_cert, "--oracle")
    assert got == code
    if payload is not None:
        assert out == payload
    else:
        assert (out["verified_sv"], out["oracle"]["verified"]) == (True, True)


def test_verify_cert_refuses_layered_sums_that_do_not_parse(capsys, v42, v42_cert):
    doc = json.loads(Path(v42_cert).read_text())
    doc["sums"] = ["x1*x2", "x1*x3+", "x1*x4+x2*x4+x3*x4"]
    Path(v42_cert).write_text(json.dumps(doc))
    code = main(["verify-cert", v42, v42_cert, "--oracle", "--json"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert "malformed certificate document: empty term" in err


def test_sums_only_document_without_the_oracle_is_inconclusive(capsys, v42, v42_cert):
    doc = json.loads(Path(v42_cert).read_text())
    doc["layers"] = None
    Path(v42_cert).write_text(json.dumps(doc))
    code, payload = run_json(capsys, "verify-cert", v42, v42_cert)
    assert (code, payload) == (2, {"verified_sv": False, "oracle_checked": False})


# A layering of a mixed-degree ideal: its second sum, x1*x3 + x2*x4*x5, is
# not homogeneous, so the oracle proves that layer by a Groebner basis.
MIXED = "n=5\nx1 x2\nx1 x3\nx2 x4 x5\n"
MIXED_LAYERS = [["x1*x2"], ["x1*x3", "x2*x4*x5"]]


@pytest.fixture
def mixed(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text(MIXED)
    return str(path)


@pytest.fixture
def mixed_cert(tmp_path):
    doc = {
        "target_ideal": {"n": 5, "generators": ["x1*x2", "x1*x3", "x2*x4*x5"]},
        "layers": MIXED_LAYERS,
    }
    path = tmp_path / "mixed.cert.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_oracle_pair_budget_overrun_is_inconclusive(
    capsys, monkeypatch, mixed, mixed_cert
):
    code, payload = run_json(capsys, "verify-cert", mixed, mixed_cert, "--oracle")
    assert (code, payload["oracle"]["method"]) == (0, "layered")
    monkeypatch.setattr(
        matroidal.cli,
        "verify_radical_cert",
        functools.partial(verify_radical_cert, max_pairs=0),
    )
    code, payload = run_json(capsys, "verify-cert", mixed, mixed_cert, "--oracle")
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


# Past 4,300 digits ``int`` itself refuses a string; the range rule must
# speak first, and without echoing the number.
_HUGE = "1" * 5000


@pytest.mark.parametrize(
    "text,message",
    [
        (f"n=4\nx1 x{_HUGE}\n", "variable index must be in 1..64"),
        (f"n={_HUGE}\nx1 x2\n", "ambient variable count must be in 1..64"),
    ],
    ids=["variable", "header"],
)
def test_a_huge_number_in_an_ideal_file_is_a_range_error(
    capsys, tmp_path, text, message
):
    path = tmp_path / "huge.txt"
    path.write_text(text)
    assert main(["check", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == f"usage error: cannot read ideal from {path}: {message}\n"


def test_a_huge_variable_in_a_certificate_layer_is_a_range_error(
    capsys, v42, v42_cert, tmp_path
):
    with open(v42_cert) as f:
        doc = json.load(f)
    doc["layers"][0] = [f"x{_HUGE}"]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["verify-cert", v42, str(path)]) == 3
    err = capsys.readouterr().err
    assert err == (
        "usage error: malformed certificate document: "
        "variable index must be in 1..64\n"
    )


@pytest.mark.parametrize(
    "change, message",
    [
        ({"target_ideal": {"n": "HUGE"}}, "n has 5000 digits"),
        ({"layers": None, "sums": [f"x1^{_HUGE}*x2"]}, "exponent of x1 has 5000 digits"),
        ({"layers": None, "sums": [f"{_HUGE}*x1*x2"]}, "coefficient has 5000 digits"),
        ({"layers": None, "sums": [f"1/{_HUGE}*x1*x2"]}, "denominator has 5000 digits"),
    ],
    ids=["n", "exponent", "coefficient", "denominator"],
)
def test_a_huge_number_in_a_certificate_is_refused_by_name(
    capsys, v42, v42_cert, tmp_path, change, message
):
    # No field has a range past Python's limit on integer string conversion,
    # so the field is named instead of that limit's advice.
    doc = json.loads(Path(v42_cert).read_text())
    doc.update(change)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', _HUGE))
    assert main(["verify-cert", v42, str(path)]) == 3
    err = capsys.readouterr().err
    assert err == (
        f"usage error: malformed certificate document: {message}, too many to read\n"
    )


def test_a_huge_integer_under_a_key_nobody_reads_is_ignored(
    capsys, v42, v42_cert, tmp_path
):
    doc = json.loads(Path(v42_cert).read_text())
    doc["nodes"] = "HUGE"
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc).replace('"HUGE"', _HUGE))
    code, payload = run_json(capsys, "verify-cert", v42, str(path))
    assert (code, payload["verified_sv"]) == (0, True)


# The CLI contract, fuzzed: random ideal files (n <= 5) and mutated
# ``cert --json`` documents through main(), in process.  Whatever the
# input, main() returns 0, 1, 2 or 3 and lets no exception escape.

# Variable lists of one matroidal ideal per orbit, by n.
_ORBITS = {
    n: [
        [mono_vars(g) for g in mi.ideal.gens]
        for d in range(1, n + 1)
        for mi in enumerate_matroidal(n, d, up_to_symmetry=True)
    ]
    for n in range(1, 6)
}
_TERMS = ["x1*x2", "x3", "x1*x2+x3*x4", "2*x1", "x1^2", "1/2*x1*x3", "-x2", "0", "x6"]
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.sampled_from(_TERMS)
    | st.text("x12345+*^/-", max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["n", "generators"]), inner, max_size=2),
    max_leaves=6,
)
_KEYS = ["target_ideal", "layers", "sums", "n", "generators"]
# What ``cert --json`` writes for V(4,2): the document to mutate when the
# drawn file has no certificate of its own.
_V42_DOC = json.dumps(
    {
        "target_ideal": {
            "n": 4,
            "generators": ["x1*x2", "x1*x3", "x1*x4", "x2*x3", "x2*x4", "x3*x4"],
        },
        "layers": [["x1*x2"], ["x1*x3", "x2*x3"], ["x1*x4", "x2*x4", "x3*x4"]],
        "sums": V42_SUMS,
        "verified_sv": True,
        "oracle_checked": False,
        "construction": "veronese",
    }
)


@st.composite
def _fuzz_ideal_file(draw):
    """An ideal file: a relabeled matroidal orbit or random sets, then damaged."""
    n = draw(st.integers(1, 5))
    if draw(st.sampled_from(["orbit", "orbit", "orbit", "sets"])) == "orbit":
        gens = draw(st.sampled_from(_ORBITS[n]))
    else:
        gens = draw(st.lists(st.sets(st.integers(1, n), min_size=1), max_size=6))
    labels = draw(st.permutations(range(1, n + 1)))
    lines = [" ".join(f"x{labels[v - 1]}" for v in g) for g in gens]
    # A header above n leaves the top variables out of the support.
    header = f"n={draw(st.sampled_from([n, n, min(n + 1, 5)]))}"
    damage = draw(st.sampled_from(["none"] * 4 + ["drop", "line", "header"]))
    if damage == "drop" and lines:
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif damage == "line":
        bad = draw(st.one_of(_bad_token(), st.sampled_from(_OUT_OF_RANGE)))
        lines.insert(draw(st.integers(0, len(lines))), bad)
    elif damage == "header":
        header = draw(st.sampled_from(_BAD_HEADERS))
    return "\n".join([header, *lines]) + "\n"


_MUTATION = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(_KEYS), _JSON),
    st.tuples(st.just("drop"), st.sampled_from(_KEYS)),
    st.tuples(st.just("drop_item"), st.sampled_from(_KEYS), st.integers(0, 6)),
    st.tuples(st.just("move"), st.integers(0, 6), st.integers(0, 6)),
    st.tuples(st.just("whole"), _JSON),
)


def _mutate(doc, mutations):
    """Apply ``mutations`` to a certificate document, skipping any that miss."""
    for op, *rest in mutations:
        if op == "whole":
            doc = rest[0]
            continue
        key = "layers" if op == "move" else rest[0]
        holder = doc
        if isinstance(doc, dict) and key in ("n", "generators"):
            holder = doc.get("target_ideal")
        if not isinstance(holder, dict):
            continue
        if op == "set":
            holder[key] = rest[1]
            continue
        if op == "drop":
            holder.pop(key, None)
            continue
        items = holder.get(key)
        if not isinstance(items, list) or not items:
            continue
        if op == "drop_item":
            del items[rest[1] % len(items)]
            continue
        # Move the last monomial of one layer to the end of another.
        source, target = (items[i % len(items)] for i in rest)
        if isinstance(source, list) and source and isinstance(target, list):
            target.append(source.pop())
    return doc


def _call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


@given(
    ideal=_fuzz_ideal_file(),
    command=st.sampled_from(
        ["check", "analyze", "decompose", "partition", "cert", "verify-cert"]
    ),
    mutations=st.lists(_MUTATION, max_size=3),
    oracle=st.booleans(),
    as_json=st.booleans(),
)
# A sums-only document with no sums: under --oracle this once escaped main().
@example(
    ideal=V42,
    command="verify-cert",
    mutations=[("set", "layers", None), ("set", "sums", [])],
    oracle=True,
    as_json=True,
)
@settings(max_examples=300, deadline=None)
def test_cli_exits_with_a_contract_code_on_any_input(
    ideal, command, mutations, oracle, as_json
):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ideal.txt"
        path.write_text(ideal)
        argv = [command, str(path)]
        if command == "verify-cert":
            code, out = _call(["cert", str(path), "--json"])
            assert code in (0, 1, 2, 3), ideal
            doc = json.loads(out if code == 0 else _V42_DOC)
            cert = Path(tmp) / "cert.json"
            cert.write_text(json.dumps(_mutate(doc, mutations)))
            argv.append(str(cert))
            if oracle:
                argv += ["--oracle", "--cap", "4"]
        if as_json:
            argv.append("--json")
        code, out = _call(argv)
    assert code in (0, 1, 2, 3), (argv, ideal, mutations)
    if as_json and out:
        json.loads(out)  # one JSON document, never a bare message
