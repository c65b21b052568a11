"""The names `clustermod` exports.  A change to this list changes the public API:
make it on purpose and record it in CHANGES.md."""
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

