"""Exception hierarchy shared by all gkzkit modules.

Exit-code contract for the CLI: ParseError -> 2, PreconditionError -> 3,
SearchBoundError -> 4, only where a bound the caller sets runs out: the
cofactor degree of `verify-member`.  Every other search ends where a lemma
proves it does, so it raises no SearchBoundError.
"""


class GkzError(Exception):
    code = "error"


class ParseError(GkzError):
    code = "parse_error"


class PreconditionError(GkzError):
    code = "precondition"


class RankDeficient(PreconditionError):
    code = "rank_deficient"


class NotPointed(PreconditionError):
    code = "not_pointed"


class NotFullLattice(PreconditionError):
    """Columns do not generate the full integer lattice."""

    code = "not_full_lattice"


class NotHomogeneous(PreconditionError):
    code = "not_homogeneous"


class ParameterResonant(PreconditionError):
    code = "parameter_resonant"


class FirstRowNotOnes(PreconditionError):
    code = "first_row_not_ones"


class VariableMismatch(PreconditionError):
    code = "variable_mismatch"


class DimensionUnsupported(PreconditionError):
    code = "dimension_unsupported"


class DegenerateColumn(PreconditionError):
    """A zero column was passed where a nonzero grading degree is required."""

    code = "degenerate_column"


class ColumnIndexOutOfRange(PreconditionError):
    """A 1-based column index outside 1..n, a 0-based variable index outside
    0..nvars - 1, or a negative exponent of a variable."""

    code = "column_index_out_of_range"


class SearchBoundError(GkzError):
    code = "search_bound"


class CertificateNotFound(SearchBoundError):
    """Raised by the CLI when a bounded membership search comes back empty."""

    code = "certificate_not_found"
