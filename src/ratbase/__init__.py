"""Rational-base numeration: digit expansions in base a/b, pattern counting,
the adelic tiling picture behind them, and exact Fourier machinery."""

from .adelic import (AdeleContext, AdelePoint, BoundaryAmbiguous, BoundaryTube,
                     BoxLocation, NotIntegral, ScaleExceeded, boundary_tubes,
                     char_exponent, char_tilde, character, classify_digit,
                     corner_of_residues, count_boundary_hits, cover_census,
                     fiber_coordinate, fiber_interval, frac_p, in_z_alpha,
                     locate_box, membership_point, reduce_mod_lattice,
                     tile_corners, verify_residue_system)
from .fourier import (FourierCoefficient, SeriesEval, SeriesTruncation,
                      coeff_f, coeff_g, coefficient_table, eval_urysohn_direct,
                      eval_urysohn_series, series_tail_bound,
                      urysohn_pattern_estimate)
from .numeration import (Base, DigitWord, NotInLanguage, decode, digit,
                         encode, format_digits, length, parse_digits,
                         sum_of_digits, word_value)
from .patterns import (Pattern, PatternStats, ReportRow, asymptotic_report,
                       champernowne_digits, champernowne_freq,
                       champernowne_freq_bulk, champernowne_prefix_array,
                       count_pattern, count_pattern_at, report_csv,
                       report_json, summatory_sod)
from .render import TileRect, render_tiles, tiles_csv, tiles_svg

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
