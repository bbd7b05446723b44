//! The size/condition expression language used by annotations.
//!
//! Expressions appear in `buffer(...)`, `resource(...)` and `if (...)`
//! annotations. They are evaluated twice: by the guest library when
//! marshaling a call (to size buffers and pick sync/async), and by the API
//! server when allocating space for output parameters. Both sides evaluate
//! against the marshaled argument values plus the constants table from the
//! header, so results agree by construction.

use std::collections::BTreeMap;
use std::fmt;

use ava_wire::Value;

use crate::ctypes::{CType, TypeTable};
use crate::descriptor::ParamDesc;
use crate::error::{Result, SpecError, SpecErrorKind};
use crate::lexer::{Cursor, Tok};

/// An expression over function parameters and header constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Lit(i64),
    /// Parameter or constant reference.
    Ident(String),
    /// `sizeof(type-name)`.
    SizeOf(CType),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical not.
    Not,
}

/// Binary operators, in C precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Mul,
    Div,
    Rem,
    Add,
    Sub,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    And,
    Or,
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Ident(name) => write!(f, "{name}"),
            Expr::SizeOf(ty) => write!(f, "sizeof({ty:?})"),
            Expr::Unary(UnOp::Neg, e) => write!(f, "-({e})"),
            Expr::Unary(UnOp::Not, e) => write!(f, "!({e})"),
            Expr::Binary(op, l, r) => {
                let sym = match op {
                    BinOp::Mul => "*",
                    BinOp::Div => "/",
                    BinOp::Rem => "%",
                    BinOp::Add => "+",
                    BinOp::Sub => "-",
                    BinOp::Shl => "<<",
                    BinOp::Shr => ">>",
                    BinOp::Lt => "<",
                    BinOp::Le => "<=",
                    BinOp::Gt => ">",
                    BinOp::Ge => ">=",
                    BinOp::Eq => "==",
                    BinOp::Ne => "!=",
                    BinOp::And => "&&",
                    BinOp::Or => "||",
                };
                write!(f, "({l} {sym} {r})")
            }
        }
    }
}

/// Name → value bindings for evaluation.
///
/// Parameter lists are tiny (≤ a dozen names), so bindings live in a
/// linear vector — faster than a map on the marshaling hot path. A call's
/// own arguments are not copied in at all: they are read where they lie,
/// when an expression names them, so building the environment for a call
/// allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct EvalEnv<'a> {
    params: Vec<(&'a str, i64)>,
    call: Option<(&'a [ParamDesc], &'a [Value])>,
    constants: Option<&'a BTreeMap<String, i64>>,
}

impl<'a> EvalEnv<'a> {
    /// Creates an environment with just a constants table.
    pub fn with_constants(constants: &'a BTreeMap<String, i64>) -> Self {
        EvalEnv {
            params: Vec::new(),
            call: None,
            constants: Some(constants),
        }
    }

    /// An environment binding each of `params` to the wire value at the
    /// same position in `args`, as [`EvalEnv::bind_value`] would.
    pub(crate) fn for_call(
        constants: &'a BTreeMap<String, i64>,
        params: &'a [ParamDesc],
        args: &'a [Value],
    ) -> Self {
        EvalEnv {
            params: Vec::new(),
            call: Some((params, args)),
            constants: Some(constants),
        }
    }

    /// Binds a parameter name to an integer value.
    pub fn bind(&mut self, name: &'a str, value: i64) {
        self.params.push((name, value));
    }

    /// Binds a parameter from a wire value if it has integral shape.
    /// Non-integral values (buffers, strings) are simply not bound;
    /// referencing them in an expression is then an evaluation error.
    pub fn bind_value(&mut self, name: &'a str, value: &Value) {
        if let Some(v) = integral(value) {
            self.params.push((name, v));
        }
    }

    fn lookup(&self, name: &str) -> Option<i64> {
        // Later bindings shadow earlier ones, explicit bindings shadow the
        // call's arguments, and parameters shadow constants, so scan from
        // the back.
        self.params
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .or_else(|| {
                let (params, args) = self.call?;
                params
                    .iter()
                    .zip(args)
                    .rev()
                    .find(|(p, _)| p.name == name)
                    .and_then(|(_, value)| integral(value))
            })
            .or_else(|| self.constants.and_then(|c| c.get(name).copied()))
    }
}

/// The integer an expression sees for a wire value: its integral value,
/// 0 for null, and nothing for a buffer or string.
fn integral(value: &Value) -> Option<i64> {
    value.as_i64().or(value.is_null().then_some(0))
}

impl Expr {
    /// Parses an expression from the cursor (lowest precedence: `||`).
    pub fn parse(cur: &mut Cursor) -> Result<Expr> {
        parse_or(cur)
    }

    /// Evaluates to an integer.
    pub fn eval(&self, env: &EvalEnv<'_>, types: &TypeTable) -> Result<i64> {
        match self {
            Expr::Lit(v) => Ok(*v),
            Expr::Ident(name) => env.lookup(name).ok_or_else(|| {
                SpecError::nowhere(SpecErrorKind::Eval(format!(
                    "`{name}` is not bound to an integer value"
                )))
            }),
            Expr::SizeOf(ty) => {
                let size = types.size_of(ty)?;
                i64::try_from(size)
                    .map_err(|_| SpecError::nowhere(SpecErrorKind::Eval("sizeof overflow".into())))
            }
            Expr::Unary(op, e) => {
                let v = e.eval(env, types)?;
                Ok(match op {
                    UnOp::Neg => v.checked_neg().ok_or_else(overflow)?,
                    UnOp::Not => i64::from(v == 0),
                })
            }
            Expr::Binary(op, l, r) => {
                let a = l.eval(env, types)?;
                // Short-circuit logical operators.
                match op {
                    BinOp::And if a == 0 => return Ok(0),
                    BinOp::Or if a != 0 => return Ok(1),
                    _ => {}
                }
                let b = r.eval(env, types)?;
                Ok(match op {
                    BinOp::Mul => a.checked_mul(b).ok_or_else(overflow)?,
                    BinOp::Div => {
                        if b == 0 {
                            return Err(SpecError::nowhere(SpecErrorKind::Eval(
                                "division by zero".into(),
                            )));
                        }
                        a / b
                    }
                    BinOp::Rem => {
                        if b == 0 {
                            return Err(SpecError::nowhere(SpecErrorKind::Eval(
                                "remainder by zero".into(),
                            )));
                        }
                        a % b
                    }
                    BinOp::Add => a.checked_add(b).ok_or_else(overflow)?,
                    BinOp::Sub => a.checked_sub(b).ok_or_else(overflow)?,
                    BinOp::Shl => a
                        .checked_shl(u32::try_from(b).map_err(|_| overflow())?)
                        .ok_or_else(overflow)?,
                    BinOp::Shr => a
                        .checked_shr(u32::try_from(b).map_err(|_| overflow())?)
                        .ok_or_else(overflow)?,
                    BinOp::Lt => i64::from(a < b),
                    BinOp::Le => i64::from(a <= b),
                    BinOp::Gt => i64::from(a > b),
                    BinOp::Ge => i64::from(a >= b),
                    BinOp::Eq => i64::from(a == b),
                    BinOp::Ne => i64::from(a != b),
                    BinOp::And => i64::from(b != 0),
                    BinOp::Or => i64::from(b != 0),
                })
            }
        }
    }

    /// Evaluates as a boolean (non-zero = true).
    pub fn eval_bool(&self, env: &EvalEnv<'_>, types: &TypeTable) -> Result<bool> {
        Ok(self.eval(env, types)? != 0)
    }

    /// Evaluates as a non-negative size.
    pub fn eval_size(&self, env: &EvalEnv<'_>, types: &TypeTable) -> Result<usize> {
        let v = self.eval(env, types)?;
        usize::try_from(v).map_err(|_| {
            SpecError::nowhere(SpecErrorKind::Eval(format!(
                "size expression evaluated to negative value {v}"
            )))
        })
    }

    /// All parameter/constant names referenced by this expression.
    pub fn referenced_names(&self, out: &mut Vec<String>) {
        match self {
            Expr::Lit(_) | Expr::SizeOf(_) => {}
            Expr::Ident(name) => {
                if !out.contains(name) {
                    out.push(name.clone());
                }
            }
            Expr::Unary(_, e) => e.referenced_names(out),
            Expr::Binary(_, l, r) => {
                l.referenced_names(out);
                r.referenced_names(out);
            }
        }
    }
}

fn overflow() -> SpecError {
    SpecError::nowhere(SpecErrorKind::Eval("arithmetic overflow".into()))
}

fn parse_or(cur: &mut Cursor) -> Result<Expr> {
    let mut lhs = parse_and(cur)?;
    while cur.eat_punct("||") {
        let rhs = parse_and(cur)?;
        lhs = Expr::Binary(BinOp::Or, Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn parse_and(cur: &mut Cursor) -> Result<Expr> {
    let mut lhs = parse_cmp(cur)?;
    while cur.eat_punct("&&") {
        let rhs = parse_cmp(cur)?;
        lhs = Expr::Binary(BinOp::And, Box::new(lhs), Box::new(rhs));
    }
    Ok(lhs)
}

fn parse_cmp(cur: &mut Cursor) -> Result<Expr> {
    let mut lhs = parse_shift(cur)?;
    loop {
        let op = if cur.eat_punct("==") {
            BinOp::Eq
        } else if cur.eat_punct("!=") {
            BinOp::Ne
        } else if cur.eat_punct("<=") {
            BinOp::Le
        } else if cur.eat_punct(">=") {
            BinOp::Ge
        } else if cur.eat_punct("<") {
            BinOp::Lt
        } else if cur.eat_punct(">") {
            BinOp::Gt
        } else {
            return Ok(lhs);
        };
        let rhs = parse_shift(cur)?;
        lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
    }
}

fn parse_shift(cur: &mut Cursor) -> Result<Expr> {
    let mut lhs = parse_add(cur)?;
    loop {
        let op = if cur.eat_punct("<<") {
            BinOp::Shl
        } else if cur.eat_punct(">>") {
            BinOp::Shr
        } else {
            return Ok(lhs);
        };
        let rhs = parse_add(cur)?;
        lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
    }
}

fn parse_add(cur: &mut Cursor) -> Result<Expr> {
    let mut lhs = parse_mul(cur)?;
    loop {
        let op = if cur.eat_punct("+") {
            BinOp::Add
        } else if cur.eat_punct("-") {
            BinOp::Sub
        } else {
            return Ok(lhs);
        };
        let rhs = parse_mul(cur)?;
        lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
    }
}

fn parse_mul(cur: &mut Cursor) -> Result<Expr> {
    let mut lhs = parse_unary(cur)?;
    loop {
        let op = if cur.eat_punct("*") {
            BinOp::Mul
        } else if cur.eat_punct("/") {
            BinOp::Div
        } else if cur.eat_punct("%") {
            BinOp::Rem
        } else {
            return Ok(lhs);
        };
        let rhs = parse_unary(cur)?;
        lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
    }
}

fn parse_unary(cur: &mut Cursor) -> Result<Expr> {
    if cur.eat_punct("-") {
        return Ok(Expr::Unary(UnOp::Neg, Box::new(parse_unary(cur)?)));
    }
    if cur.eat_punct("!") {
        return Ok(Expr::Unary(UnOp::Not, Box::new(parse_unary(cur)?)));
    }
    parse_atom(cur)
}

fn parse_atom(cur: &mut Cursor) -> Result<Expr> {
    match cur.peek().cloned() {
        Some(Tok::Int(v)) => {
            cur.next();
            Ok(Expr::Lit(v))
        }
        Some(Tok::Ident(name)) if name == "sizeof" => {
            cur.next();
            cur.expect_punct("(")?;
            let ty = crate::cparse::parse_type_name(cur)?;
            cur.expect_punct(")")?;
            Ok(Expr::SizeOf(ty))
        }
        Some(Tok::Ident(name)) => {
            cur.next();
            Ok(Expr::Ident(name))
        }
        Some(Tok::Punct("(")) => {
            cur.next();
            let inner = Expr::parse(cur)?;
            cur.expect_punct(")")?;
            Ok(inner)
        }
        _ => Err(cur.err_here(format!("expected expression, found {}", cur.describe()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse(src: &str) -> Expr {
        let mut cur = Cursor::new(lex(src).unwrap());
        let e = Expr::parse(&mut cur).unwrap();
        assert!(cur.at_end(), "unparsed input in {src:?}");
        e
    }

    fn eval(src: &str, binds: &[(&str, i64)]) -> i64 {
        let consts = BTreeMap::new();
        let mut env = EvalEnv::with_constants(&consts);
        for (k, v) in binds {
            env.bind(k, *v);
        }
        parse(src).eval(&env, &TypeTable::new()).unwrap()
    }

    #[test]
    fn precedence_is_c_like() {
        assert_eq!(eval("2 + 3 * 4", &[]), 14);
        assert_eq!(eval("(2 + 3) * 4", &[]), 20);
        assert_eq!(eval("1 << 4 + 1", &[]), 32); // shift binds looser than +
        assert_eq!(eval("10 - 2 - 3", &[]), 5); // left associative
        assert_eq!(eval("1 + 2 == 3", &[]), 1);
        assert_eq!(eval("0 || 1 && 0", &[]), 0); // && binds tighter
    }

    #[test]
    fn unary_operators() {
        assert_eq!(eval("-5 + 3", &[]), -2);
        assert_eq!(eval("!0", &[]), 1);
        assert_eq!(eval("!7", &[]), 0);
        assert_eq!(eval("--3", &[]), 3);
    }

    #[test]
    fn parameters_resolve() {
        assert_eq!(eval("size * count", &[("size", 8), ("count", 100)]), 800);
    }

    #[test]
    fn constants_resolve() {
        let mut consts = BTreeMap::new();
        consts.insert("CL_TRUE".to_string(), 1i64);
        let env = EvalEnv::with_constants(&consts);
        assert_eq!(
            parse("CL_TRUE == 1").eval(&env, &TypeTable::new()).unwrap(),
            1
        );
    }

    #[test]
    fn parameters_shadow_constants() {
        let mut consts = BTreeMap::new();
        consts.insert("n".to_string(), 5i64);
        let mut env = EvalEnv::with_constants(&consts);
        env.bind("n", 10);
        assert_eq!(parse("n").eval(&env, &TypeTable::new()).unwrap(), 10);
    }

    #[test]
    fn sizeof_evaluates() {
        let mut types = TypeTable::new();
        types.add_typedef("cl_event", CType::ptr(CType::Struct("_cl_event".into())));
        let consts = BTreeMap::new();
        let mut env = EvalEnv::with_constants(&consts);
        env.bind("n", 3);
        assert_eq!(
            parse("n * sizeof(cl_event)").eval(&env, &types).unwrap(),
            24
        );
        assert_eq!(parse("sizeof(unsigned int)").eval(&env, &types).unwrap(), 4);
    }

    #[test]
    fn unbound_name_errors() {
        let consts = BTreeMap::new();
        let env = EvalEnv::with_constants(&consts);
        assert!(parse("mystery").eval(&env, &TypeTable::new()).is_err());
    }

    #[test]
    fn division_by_zero_errors() {
        let consts = BTreeMap::new();
        let env = EvalEnv::with_constants(&consts);
        assert!(parse("1 / 0").eval(&env, &TypeTable::new()).is_err());
        assert!(parse("1 % 0").eval(&env, &TypeTable::new()).is_err());
    }

    #[test]
    fn short_circuit_avoids_rhs_errors() {
        // `0 && (1/0)` must not evaluate the division.
        assert_eq!(eval("0 && 1 / 0", &[]), 0);
        assert_eq!(eval("1 || 1 / 0", &[]), 1);
    }

    #[test]
    fn eval_size_rejects_negative() {
        let consts = BTreeMap::new();
        let env = EvalEnv::with_constants(&consts);
        assert!(parse("-4").eval_size(&env, &TypeTable::new()).is_err());
        assert_eq!(parse("4").eval_size(&env, &TypeTable::new()).unwrap(), 4);
    }

    #[test]
    fn bind_value_shapes() {
        let consts = BTreeMap::new();
        let mut env = EvalEnv::with_constants(&consts);
        env.bind_value("a", &Value::U32(7));
        env.bind_value("b", &Value::Null);
        env.bind_value("c", &Value::Str("nope".into()));
        let types = TypeTable::new();
        assert_eq!(parse("a").eval(&env, &types).unwrap(), 7);
        assert_eq!(parse("b").eval(&env, &types).unwrap(), 0);
        assert!(parse("c").eval(&env, &types).is_err());
    }

    #[test]
    fn referenced_names_collects_unique() {
        let e = parse("a * b + a - sizeof(int)");
        let mut names = Vec::new();
        e.referenced_names(&mut names);
        assert_eq!(names, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn display_round_trips_through_parser() {
        let e = parse("a * (b + 2) == c && !d");
        let printed = e.to_string();
        let reparsed = parse(&printed);
        assert_eq!(e, reparsed);
    }
}
