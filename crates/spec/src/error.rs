//! Errors for specification parsing, inference and lowering.

use std::fmt;

/// Location of an error within a source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Loc {
    /// 1-based line number.
    pub line: u32,
    /// 1-based column number.
    pub col: u32,
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.line, self.col)
    }
}

/// Error raised while processing an API specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Where the problem was detected (line 0 means "no position").
    pub loc: Loc,
    /// What went wrong.
    pub kind: SpecErrorKind,
}

/// Classification of specification errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecErrorKind {
    /// Tokenizer failure (bad character, unterminated literal).
    Lex(String),
    /// Preprocessor failure (unknown directive, missing include).
    Preprocess(String),
    /// Grammar violation.
    Parse(String),
    /// A name was referenced but never declared.
    Unknown(String),
    /// An annotation conflicts with the declaration or another annotation.
    Conflict(String),
    /// Size/condition expression could not be evaluated.
    Eval(String),
    /// The spec is structurally valid but cannot be lowered to a runtime
    /// descriptor (e.g. a pointer parameter with no size information).
    Lowering(String),
    /// A call's arguments break its function's spec (arity, value shape
    /// or buffer length); the message names the parameter.
    Argument(String),
}

impl SpecError {
    /// Creates an error at a specific location.
    pub fn at(loc: Loc, kind: SpecErrorKind) -> Self {
        SpecError { loc, kind }
    }

    /// Creates an error with no meaningful position.
    pub fn nowhere(kind: SpecErrorKind) -> Self {
        SpecError {
            loc: Loc { line: 0, col: 0 },
            kind,
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            SpecErrorKind::Lex(m) => format!("lex error: {m}"),
            SpecErrorKind::Preprocess(m) => format!("preprocess error: {m}"),
            SpecErrorKind::Parse(m) => format!("parse error: {m}"),
            SpecErrorKind::Unknown(m) => format!("unknown name: {m}"),
            SpecErrorKind::Conflict(m) => format!("conflicting annotation: {m}"),
            SpecErrorKind::Eval(m) => format!("expression error: {m}"),
            SpecErrorKind::Lowering(m) => format!("lowering error: {m}"),
            SpecErrorKind::Argument(m) => m.clone(),
        };
        if self.loc.line == 0 {
            write!(f, "{what}")
        } else {
            write!(f, "{}: {what}", self.loc)
        }
    }
}

impl std::error::Error for SpecError {}

/// Result alias for spec operations.
pub type Result<T> = std::result::Result<T, SpecError>;
