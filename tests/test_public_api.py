"""The names `clustermod` exports.  A change to this list changes the public API:
make it on purpose and record it in CHANGES.md.  The README's library example
runs here too, and prints what its comments say."""
import contextlib
import io
import pathlib
import re

import clustermod

PUBLIC_API = [
    "CQObject", "CartanData", "ClusterVarRecord", "ExchangeEdge", "ExchangeGraph",
    "IceQuiver", "LaurentPoly", "Monomial", "QuiverRep", "RepContext", "Seed",
    "SeedContext", "VarId", "Vertex", "Yvar", "a_monomial", "build_gamma_full",
    "build_gamma_l", "build_qcheck", "build_qxi", "build_qxil", "cartan", "cartan_type",
    "check_height_function", "div_exact", "engine", "enumerate_exchange_graph", "errors",
    "eval_tropical", "fvar", "hlmap", "hw_extract", "kr_monomial",
    "linear_height", "make_record", "parse_height", "positive_roots", "psi", "quivers",
    "reps", "run_sequence", "seed_context", "separation", "substitute", "symbolic",
    "uv_monomials", "xvar", "ycoef", "yhat_monomial", "z_monomial", "zvar",
]


def test_public_api_is_pinned():
    assert sorted(clustermod.__all__) == PUBLIC_API



def test_readme_library_example_prints_what_its_comments_say():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = re.search(r"^## Library use\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)
    want = re.findall(r"^print\(.*?\)[ \t]+# (.*)$", block, re.M)
    assert len(want) == block.count("print(") == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == want
