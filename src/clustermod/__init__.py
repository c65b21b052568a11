"""Exact cluster-algebra engine, Dynkin-quiver representations, and the map
from rigid objects to highest l-weight monomials of cluster modules."""

from .cartan import CartanData, cartan_type, check_height_function, linear_height, parse_height
from .engine import (
    ClusterVarRecord,
    ExchangeEdge,
    ExchangeGraph,
    Seed,
    SeedContext,
    enumerate_exchange_graph,
    make_record,
    run_sequence,
    seed_context,
    separation,
)
from .hlmap import (
    a_monomial,
    hw_extract,
    kr_monomial,
    psi,
    uv_monomials,
    yhat_monomial,
    z_monomial,
)
from .quivers import (
    IceQuiver,
    Vertex,
    build_gamma_full,
    build_gamma_l,
    build_qcheck,
    build_qxi,
    build_qxil,
)
from .reps import CQObject, QuiverRep, RepContext, positive_roots
from .symbolic import (
    LaurentPoly,
    Monomial,
    VarId,
    div_exact,
    eval_tropical,
    fvar,
    substitute,
    xvar,
    ycoef,
    Yvar,
    zvar,
)

__all__ = [name for name in dir() if not name.startswith("_")]
