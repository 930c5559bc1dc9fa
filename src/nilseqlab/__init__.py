"""nilseqlab: finite-scale experiments on uniformity seminorms,
nilsequences, and correlation sequences of commuting torus maps."""

__version__ = "0.1.0"

from .signals import (  # noqa: F401
    Signal,
    Window,
    constant_signal,
    density_seminorm,
    inner_product,
    multiplicative_derivative,
    read_csv,
    write_csv,
)
from .uniformity import (  # noqa: F401
    AntiUniformityReport,
    GowersParams,
    GowersReport,
    VdcReport,
    anti_uniformity_ratio,
    cyclic_gowers_oracle,
    ghk_seminorm,
    vdc_defect,
)
from .nilmanifolds import (  # noqa: F401
    BracketPhase,
    HeisenbergElement,
    HeisenbergObservable,
    HeisenbergOrbit,
    PolynomialPhase,
    eval_nilsequence,
    heis_pow,
    heis_reduce,
    nilkey_reconstruct,
    torus_interpolate,
)
from .systems import (  # noqa: F401
    AffineToralSystem,
    CorpusEntry,
    CorrelationQuery,
    QuadratureSpec,
    ToralMap,
    TrigObservable,
    character,
    corpus_generate,
    correlate_exact,
    correlate_numeric,
    correlation_structure,
    diagonal_query,
    required_grid_size,
    single_map_query,
    skew_spike_query,
)
from .decomposition import (  # noqa: F401
    DecompositionReport,
    DictionarySpec,
    build_dictionary,
    clip_to_unit_disk,
    decompose,
)
from .experiments import (  # noqa: F401
    ClassDistanceResult,
    ExperimentConfig,
    SubsequenceSpec,
    class_distance,
    config_from_dict,
    load_config,
    run_experiment,
    subsequence_average,
)
from .errors import AliasingError, BudgetError, ConfigError  # noqa: F401
