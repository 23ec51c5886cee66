"""Utility-maximization duality under proportional transaction costs on finite scenario trees."""

from .errors import (
    BelowX0Error, ConfigError, DomainError, MarketError,
    NoConsistentPriceSystemError, SolverIndeterminateError, TcdlError,
)
from .market import (
    MarketModel, ScenarioTree, binomial_market, build_market, build_tree,
    load_market, market_to_dict, save_market, single_node_market, tree_to_spec,
    validate_market,
)
from .utility import (
    UtilitySpec, check_inada, check_rae, i_eval, make_utility, parse_utility,
    u_eval, u_prime, v_eval,
)
from .solver import ConvexProgram, LinearProgram, solve_convex, solve_lp
from .primal import (
    PayoffVector, PrimalSolution, TradingStrategy, check_self_financing,
    is_attainable, liquidation_value, max_min_wealth, primal_marginal,
    solve_primal,
)
from .dual import (
    CpsElement, CpsPolytope, DualSolution, compute_x0, cps_check, cps_polytope,
    dual_grid, solve_dual, superreplication_price,
)
from .harness import (
    DualityReport, conjugacy_check, find_yhat, model_hash, random_instance,
    recover_primal_from_dual, run_experiment, selftest, slackness_check,
)

__version__ = "0.1.0"
