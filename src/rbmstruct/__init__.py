"""Two-hop structure learning for ferromagnetic and locally consistent
RBMs from visible-node samples, with classical greedy learners and
query-metered simulations of their quantum-search variants."""

from .estimators import (
    ConfigIndex,
    InfluenceValue,
    avg_cond_cov_decomposed,
    avg_cond_cov_direct,
    build_index,
    empirical_influence,
)
from .greedy import (
    FerroTheoryConstants,
    FullGraphResult,
    LcTheoryConstants,
    LearnerConfig,
    NeighborhoodResult,
    ferro_constants,
    lc_constants,
    learn_ferro,
    learn_full_graph,
    learn_lc,
)
from .model import (
    ENUM_GUARD,
    ExactOracle,
    NonDegeneracyParams,
    RbmModel,
    TwoHopGraph,
    generate_model,
    load_model,
    save_model,
    two_hop_graph,
    validate_nondegenerate,
)
from .qsearch import (
    QueryMeter,
    ScoreOracle,
    dh_max_find,
    grover_stage,
    qsearch_sim,
    repetitions,
    stage_success_probability,
)
from .sampling import (
    GibbsConfig,
    SampleFileError,
    SampleSet,
    exact_sample,
    gibbs_sample,
    load,
    save,
)

__version__ = "0.1.0"
