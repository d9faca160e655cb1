"""fracosc: fractional-order calculus and higher-order osculator-bundle geometry.

Layers, bottom to top:

* :mod:`fracosc.specfun`      -- gamma / gamma products / generalized binomial / Mittag-Leffler
* :mod:`fracosc.gammaledger`  -- exact gamma-ratio coefficients (one signed ledger of arguments)
* :mod:`fracosc.expr`         -- small expression language + fractional partials
* :mod:`fracosc.series`       -- fractional-power series in t: expr's term sums and calculus
* :mod:`fracosc.numeric`      -- Grunwald-Letnikov / L1 schemes, fractional ODE solver
* :mod:`fracosc.geometry`     -- charts, fractional Jacobians, fractional exterior calculus
* :mod:`fracosc.bundle`       -- k-order fractional jet bundle: dilation fields, tangent
                                 structure, sprays, nonlinear connections, adapted frames
* :mod:`fracosc.connection`   -- metrical connection, covariant derivative, metric lift
* :mod:`fracosc.lagrange`     -- fractional variational calculus and prolongations
* :mod:`fracosc.cli`          -- command-line front end (`fracosc <subcommand>`)
* :mod:`fracosc.config`       -- flat ``key = value`` config files with sha256 provenance
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    AccuracyError,
    DomainError,
    EvalError,
    FracoscError,
    ParseError,
    SingularityError,
)
from .series import FracSeries, frac_derive  # noqa: F401
from .specfun import gamma, gen_binomial, mittag_leffler  # noqa: F401
