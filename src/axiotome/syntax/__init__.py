"""Front end: lexing, parsing and canonical formatting of Axiotome source."""

from .lexer import OPERATOR_GLYPHS, tokenize
from .nodes import (
    Axiom, ByCasesProof, CaseBlock, CaseRangeJustification, EquationalBody,
    FormulaicBody, Frozen, FunctionDecl, Justification, LinearProof, OperatorDecl,
    ProductBody, Program, ProofBody, ProofStep, Quantifier, RuleJustification,
    Statement, SumBody, Term, TheoremDecl, Token, TokenKind, TypeDecl, TypeExpr,
)
from .parser import parse_program, parse_term, parse_term_with_spans
from .printer import (
    format_justification, format_node, format_quantifier, format_term, format_type,
)

#: Spec name for the canonical formatter.
format = format_node

__all__ = [
    "OPERATOR_GLYPHS", "tokenize", "parse_program", "parse_term", "parse_term_with_spans",
    "format", "format_node", "format_term", "format_type",
    "format_quantifier", "format_justification",
    "Axiom", "ByCasesProof", "CaseBlock", "CaseRangeJustification",
    "EquationalBody", "FormulaicBody", "Frozen", "FunctionDecl", "Justification",
    "LinearProof", "OperatorDecl", "ProductBody", "Program", "ProofBody",
    "ProofStep", "Quantifier", "RuleJustification", "Statement", "SumBody",
    "Term", "TheoremDecl", "Token", "TokenKind", "TypeDecl", "TypeExpr",
]
