"""Certified arithmetic for the staircase of expansion bases.

The package maps rotation slopes to the base beta whose greedy expansion of 1
reads off the slope's mechanical word: exact combinatorics on words
(:mod:`.words`), certified root enclosures for the bases (:mod:`.beta`), the
staircase map itself with jumps and plot data (:mod:`.delta`), big-number
continued-fraction estimators (:mod:`.diophantine`), and difference-quotient
probes of the staircase's derivative (:mod:`.analysis`).
"""

from .analysis import (QuotientTrace, irrational_probe, lowerbound_check,
                       rational_left_quotients, rational_right_quotients,
                       zero_plus_quotients)
from .beta import (BetaHandle, extremal_orbit_check, greedy_digits,
                   near_one_root, positive_root_finite, positive_root_series,
                   quasi_greedy_of_finite)
from .delta import (DeltaValue, JumpValue, delta_irrational, delta_rational,
                    delta_right_limit, jump, lipschitz_order, plot_samples,
                    right_limit_word, sweep)
from .diophantine import (ContinuedFraction, LogMagnitude, MeasureEstimate,
                          best_approx_check, cf_expand, classify, convergents,
                          lookup_preset, mu_estimate, presets, theta_estimate,
                          theta_from_samples)
from .errors import CertificationError, PreconditionError
from .intervals import Enclosure
from .words import (PeriodicWord, bzb_word, central_word, characteristic_prefix,
                    christoffel, common_prefix_radius, is_parry_admissible,
                    lex_compare, mechanical_prefix)

__version__ = "1.0.0"
