//! Recursive-descent parser for `.pol` programs.
//!
//! Grammar (whitespace-insensitive, `#` comments):
//!
//! ```text
//! program  := "policy" ident "lists" (int | "percpu") hook*
//! hook     := "hook" hookname block
//! hookname := "enqueue" | "pick_next" | "tick" | "on_fork"
//! block    := "{" stmt* "}"
//! stmt     := "let" ident "=" expr
//!           | "if" expr block ("else" block)?
//!           | "repeat" int block
//!           | "foreach" ident "in" "list" "(" expr ")" block
//!           | "break" | "pick" expr
//!           | "enqueue_front" "(" expr ")" | "enqueue_back" "(" expr ")"
//!           | "requeue_back" "(" expr ")"
//!           | "set_counter" "(" expr "," expr ")" | "recalc" "(" ")"
//!           | ident "=" expr
//! expr     := add (cmpop add)?          cmpop := == != < <= > >=
//! add      := mul (("+" | "-") mul)*
//! mul      := unary (("*" | "/" | "%") unary)*
//! unary    := "-" unary | int | "(" expr ")" | fname "(" args ")" | ident
//! ```
//!
//! The parser resolves host-function names ([`HostFn`]) and builtin
//! value names ([`Builtin`]); anything else becomes a local-variable
//! reference for the verifier to check. All failures are spanned
//! [`PolicyError`]s — the parser never panics on any input.
//!
//! Nesting is bounded by [`MAX_NESTING`]: the parser itself recurses
//! into blocks, parentheses, unary minus and call arguments, and every
//! later pass (verifier, compiler, the reference interpreter, `Drop`)
//! recurses over the tree it builds, so a deeper program is rejected
//! here, at the token that crosses the bound, before anything can run
//! out of stack.

use crate::ast::{BinOp, Block, Builtin, Expr, HookKind, HostFn, ListsDecl, Program, Span, Stmt};
use crate::lex::{lex, Tok, Token};
use crate::PolicyError;

/// Parses a `.pol` source string into an unverified [`Program`].
///
/// # Errors
///
/// A spanned [`PolicyError`] describing the first lexical or syntactic
/// problem.
pub fn parse(src: &str) -> Result<Program, PolicyError> {
    let toks = lex(src)?;
    let mut p = Parser {
        toks,
        pos: 0,
        nest: 0,
    };
    p.program()
}

/// The deepest program the parser accepts: the blocks, parentheses,
/// unary minuses and call argument lists around a point, plus the
/// height of the expression tree at that point, where a
/// left-associative chain `a + b + c …` is one level deeper per
/// operator. Every bundled program nests far less deep.
pub const MAX_NESTING: u32 = 128;

struct Parser {
    toks: Vec<Token>,
    pos: usize,
    /// Blocks, parentheses, unary minuses and argument lists open
    /// around the current token.
    nest: u32,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.toks[self.pos.min(self.toks.len() - 1)]
    }

    fn next(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err<T>(&self, span: Span, msg: impl Into<String>) -> Result<T, PolicyError> {
        Err(PolicyError::new(span, msg))
    }

    /// Opens one nesting level at `span`, or fails there past
    /// [`MAX_NESTING`]. [`leave`](Self::leave) closes it; an error
    /// abandons the whole parse, so it needs no closing.
    fn enter(&mut self, span: Span) -> Result<(), PolicyError> {
        self.nest += 1;
        self.height(span, 0)?;
        Ok(())
    }

    fn leave(&mut self) {
        self.nest -= 1;
    }

    /// `h`, the height of an expression built at `span`, if it fits
    /// under the levels open around it.
    fn height(&self, span: Span, h: u32) -> Result<u32, PolicyError> {
        if self.nest + h > MAX_NESTING {
            return self.err(span, format!("nesting deeper than {MAX_NESTING}"));
        }
        Ok(h)
    }

    /// A binary node over two parsed operands, with its height.
    fn binary(
        &self,
        op: BinOp,
        (lhs, hl): (Expr, u32),
        (rhs, hr): (Expr, u32),
        span: Span,
    ) -> Result<(Expr, u32), PolicyError> {
        let h = self.height(span, hl.max(hr) + 1)?;
        let e = Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
            span,
        };
        Ok((e, h))
    }

    fn expect(&mut self, want: Tok, what: &str) -> Result<Span, PolicyError> {
        let t = self.next();
        if t.tok == want {
            Ok(t.span)
        } else {
            self.err(
                t.span,
                format!("expected {what}, found {}", t.tok.describe()),
            )
        }
    }

    fn expect_ident(&mut self, what: &str) -> Result<(String, Span), PolicyError> {
        let t = self.next();
        match t.tok {
            Tok::Ident(s) => Ok((s, t.span)),
            other => self.err(
                t.span,
                format!("expected {what}, found {}", other.describe()),
            ),
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<Span, PolicyError> {
        let (s, span) = self.expect_ident(&format!("'{kw}'"))?;
        if s == kw {
            Ok(span)
        } else {
            self.err(span, format!("expected '{kw}', found '{s}'"))
        }
    }

    fn program(&mut self) -> Result<Program, PolicyError> {
        self.expect_keyword("policy")?;
        let (name, name_span) = self.expect_ident("policy name")?;
        if name.len() > 32 {
            return self.err(name_span, "policy name longer than 32 characters");
        }
        self.expect_keyword("lists")?;
        let t = self.next();
        let lists = match t.tok {
            Tok::Int(n) => {
                if (1..=64).contains(&n) {
                    ListsDecl::Fixed(n as usize)
                } else {
                    return self.err(t.span, format!("list count {n} outside 1..=64"));
                }
            }
            Tok::Ident(ref s) if s == "percpu" => ListsDecl::PerCpu,
            other => {
                return self.err(
                    t.span,
                    format!(
                        "expected a list count or 'percpu', found {}",
                        other.describe()
                    ),
                )
            }
        };
        let mut hooks: [Option<Block>; 4] = [None, None, None, None];
        loop {
            let t = self.next();
            match t.tok {
                Tok::Eof => break,
                Tok::Ident(ref s) if s == "hook" => {
                    let (hname, hspan) = self.expect_ident("hook name")?;
                    let Some(kind) = HookKind::from_name(&hname) else {
                        return self.err(
                            hspan,
                            format!(
                                "unknown hook '{hname}' (expected enqueue, pick_next, tick, \
                                 or on_fork)"
                            ),
                        );
                    };
                    if hooks[kind.index()].is_some() {
                        return self.err(hspan, format!("hook '{hname}' defined twice"));
                    }
                    let block = self.block()?;
                    hooks[kind.index()] = Some(block);
                }
                other => {
                    return self.err(
                        t.span,
                        format!(
                            "expected 'hook' or end of input, found {}",
                            other.describe()
                        ),
                    )
                }
            }
        }
        Ok(Program {
            name,
            lists,
            hooks,
            static_insns: [0; 4],
        })
    }

    fn block(&mut self) -> Result<Block, PolicyError> {
        let open = self.expect(Tok::LBrace, "'{'")?;
        self.enter(open)?;
        let mut stmts = Vec::new();
        loop {
            if self.peek().tok == Tok::RBrace {
                self.next();
                break;
            }
            if self.peek().tok == Tok::Eof {
                let span = self.peek().span;
                return self.err(span, "unclosed block: expected '}'");
            }
            stmts.push(self.stmt()?);
        }
        self.leave();
        Ok(Block { stmts })
    }

    fn stmt(&mut self) -> Result<Stmt, PolicyError> {
        let t = self.next();
        let span = t.span;
        let name = match t.tok {
            Tok::Ident(s) => s,
            other => {
                return self.err(
                    span,
                    format!("expected a statement, found {}", other.describe()),
                )
            }
        };
        match name.as_str() {
            "let" => {
                let (var, _) = self.expect_ident("variable name")?;
                self.expect(Tok::Assign, "'='")?;
                let expr = self.expr()?;
                Ok(Stmt::Let {
                    name: var,
                    expr,
                    span,
                })
            }
            "if" => {
                let cond = self.expr()?;
                let then = self.block()?;
                let els = if matches!(&self.peek().tok, Tok::Ident(s) if s == "else") {
                    self.next();
                    Some(self.block()?)
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then,
                    els,
                    span,
                })
            }
            "repeat" => {
                let t = self.next();
                let count = match t.tok {
                    Tok::Int(n) if (1..=1024).contains(&n) => n as u32,
                    Tok::Int(n) => {
                        return self.err(t.span, format!("repeat count {n} outside 1..=1024"))
                    }
                    other => {
                        return self.err(
                            t.span,
                            format!("repeat takes a literal count, found {}", other.describe()),
                        )
                    }
                };
                let body = self.block()?;
                Ok(Stmt::Repeat { count, body, span })
            }
            "foreach" => {
                let (var, _) = self.expect_ident("loop variable")?;
                self.expect_keyword("in")?;
                self.expect_keyword("list")?;
                self.expect(Tok::LParen, "'('")?;
                let list = self.expr()?;
                self.expect(Tok::RParen, "')'")?;
                let body = self.block()?;
                Ok(Stmt::Foreach {
                    var,
                    list,
                    body,
                    span,
                })
            }
            "break" => Ok(Stmt::Break { span }),
            "pick" => {
                let expr = self.expr()?;
                Ok(Stmt::Pick { expr, span })
            }
            "enqueue_front" | "enqueue_back" => {
                self.expect(Tok::LParen, "'('")?;
                let list = self.expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(Stmt::Place {
                    front: name == "enqueue_front",
                    list,
                    span,
                })
            }
            "requeue_back" => {
                self.expect(Tok::LParen, "'('")?;
                let task = self.expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(Stmt::Requeue { task, span })
            }
            "set_counter" => {
                self.expect(Tok::LParen, "'('")?;
                let task = self.expr()?;
                self.expect(Tok::Comma, "','")?;
                let value = self.expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(Stmt::SetCounter { task, value, span })
            }
            "recalc" => {
                self.expect(Tok::LParen, "'('")?;
                self.expect(Tok::RParen, "')'")?;
                Ok(Stmt::Recalc { span })
            }
            _ => {
                // `x = expr` assignment.
                self.expect(Tok::Assign, "'=' (assignment)")?;
                let expr = self.expr()?;
                Ok(Stmt::Assign { name, expr, span })
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, PolicyError> {
        Ok(self.cmp()?.0)
    }

    /// An expression and its height; so do the three below.
    fn cmp(&mut self) -> Result<(Expr, u32), PolicyError> {
        let lhs = self.add()?;
        let op = match self.peek().tok {
            Tok::EqEq => BinOp::Eq,
            Tok::Ne => BinOp::Ne,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        let span = self.next().span;
        let rhs = self.add()?;
        self.binary(op, lhs, rhs, span)
    }

    fn add(&mut self) -> Result<(Expr, u32), PolicyError> {
        let mut lhs = self.mul()?;
        loop {
            let op = match self.peek().tok {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            let span = self.next().span;
            let rhs = self.mul()?;
            lhs = self.binary(op, lhs, rhs, span)?;
        }
    }

    fn mul(&mut self) -> Result<(Expr, u32), PolicyError> {
        let mut lhs = self.unary()?;
        loop {
            let op = match self.peek().tok {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            let span = self.next().span;
            let rhs = self.unary()?;
            lhs = self.binary(op, lhs, rhs, span)?;
        }
    }

    fn unary(&mut self) -> Result<(Expr, u32), PolicyError> {
        let t = self.next();
        let span = t.span;
        match t.tok {
            Tok::Minus => {
                self.enter(span)?;
                let inner = self.unary()?;
                self.leave();
                self.binary(BinOp::Sub, (Expr::Int(0, span), 1), inner, span)
            }
            Tok::Int(n) => Ok((Expr::Int(n, span), 1)),
            Tok::LParen => {
                self.enter(span)?;
                let e = self.cmp()?;
                self.expect(Tok::RParen, "')'")?;
                self.leave();
                Ok(e)
            }
            Tok::Ident(name) => {
                if self.peek().tok == Tok::LParen {
                    // A call: must be a known host function.
                    let Some(func) = HostFn::from_name(&name) else {
                        return self.err(span, format!("unknown function '{name}'"));
                    };
                    self.next(); // consume '('
                    self.enter(span)?;
                    let mut args = Vec::new();
                    let mut h = 0;
                    if self.peek().tok != Tok::RParen {
                        loop {
                            let (arg, ha) = self.cmp()?;
                            args.push(arg);
                            h = h.max(ha);
                            if self.peek().tok == Tok::Comma {
                                self.next();
                            } else {
                                break;
                            }
                        }
                    }
                    self.expect(Tok::RParen, "')'")?;
                    self.leave();
                    let h = self.height(span, h + 1)?;
                    Ok((Expr::Call { func, args, span }, h))
                } else if let Some(b) = Builtin::from_name(&name) {
                    Ok((Expr::Builtin(b, span), 1))
                } else {
                    Ok((Expr::Var(name, span), 1))
                }
            }
            other => self.err(
                span,
                format!("expected an expression, found {}", other.describe()),
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_program() {
        let p = parse("policy p\nlists 1\nhook pick_next { pick idle }").unwrap();
        assert_eq!(p.name, "p");
        assert_eq!(p.lists, ListsDecl::Fixed(1));
        assert!(p.hook(HookKind::PickNext).is_some());
        assert!(p.hook(HookKind::Enqueue).is_none());
    }

    #[test]
    fn parses_percpu_and_all_hooks() {
        let src = "policy q\nlists percpu\n\
                   hook enqueue { enqueue_back(0) }\n\
                   hook pick_next { pick idle }\n\
                   hook tick { let x = 1 }\n\
                   hook on_fork { set_counter(task, 5) }";
        let p = parse(src).unwrap();
        assert_eq!(p.lists, ListsDecl::PerCpu);
        for h in HookKind::ALL {
            assert!(p.hook(h).is_some(), "missing {}", h.name());
        }
    }

    #[test]
    fn duplicate_hook_is_rejected() {
        let err = parse("policy p\nlists 1\nhook tick { }\nhook tick { }").unwrap_err();
        assert!(err.msg.contains("twice"), "{}", err.msg);
        assert_eq!(err.span.line, 4);
    }

    #[test]
    fn unknown_hook_is_rejected() {
        let err = parse("policy p\nlists 1\nhook dispatch { }").unwrap_err();
        assert!(err.msg.contains("unknown hook"));
    }

    #[test]
    fn unknown_function_is_rejected() {
        let err = parse("policy p\nlists 1\nhook pick_next { let g = godness(prev) pick idle }")
            .unwrap_err();
        assert!(err.msg.contains("unknown function 'godness'"));
    }

    #[test]
    fn unbalanced_block_is_rejected_with_span() {
        let err = parse("policy p\nlists 1\nhook pick_next { pick idle").unwrap_err();
        assert!(err.msg.contains("unclosed block"));
    }

    #[test]
    fn repeat_requires_literal_bounds() {
        assert!(parse("policy p\nlists 1\nhook tick { repeat 0 { } }").is_err());
        assert!(parse("policy p\nlists 1\nhook tick { repeat 2000 { } }").is_err());
        assert!(parse("policy p\nlists 1\nhook tick { repeat n { } }").is_err());
        assert!(parse("policy p\nlists 1\nhook tick { repeat 4 { } }").is_ok());
    }

    #[test]
    fn unary_minus_desugars_to_subtraction() {
        let p = parse("policy p\nlists 1\nhook pick_next { let c = -1000 pick idle }").unwrap();
        let b = p.hook(HookKind::PickNext).unwrap();
        match &b.stmts[0] {
            Stmt::Let { expr, .. } => match expr {
                Expr::Binary { op: BinOp::Sub, .. } => {}
                other => panic!("expected desugared subtraction, got {other:?}"),
            },
            other => panic!("expected let, got {other:?}"),
        }
    }

    #[test]
    fn list_count_bounds() {
        assert!(parse("policy p\nlists 0\n").is_err());
        assert!(parse("policy p\nlists 65\n").is_err());
        assert!(parse("policy p\nlists 64\n").is_ok());
    }

    #[test]
    fn precedence_mul_over_add_over_cmp() {
        let p = parse("policy p\nlists 1\nhook tick { let x = 1 + 2 * 3 > 4 }").unwrap();
        let b = p.hook(HookKind::Tick).unwrap();
        let Stmt::Let { expr, .. } = &b.stmts[0] else {
            panic!()
        };
        let Expr::Binary { op: BinOp::Gt, .. } = expr else {
            panic!("top must be comparison, got {expr:?}")
        };
    }

    /// Every way to nest — parentheses, unary minus, call arguments,
    /// blocks and a left-associative chain — fails past the bound with
    /// a positioned error, and parses at the deepest level it allows.
    #[test]
    fn nesting_is_bounded_at_every_construct() {
        let n = MAX_NESTING as usize;
        // (name, head, one level's opening, leaf, one level's closing, the
        // most levels that fit): the hook's block is one level and an
        // operator's height counts its leaves, so most shapes fit n - 2.
        let shapes = [
            ("parens", "let x = ", "(", "1", ")", n - 1),
            ("unary minus", "let x = ", "-", "1", "", n - 2),
            (
                "call arguments",
                "let x = ",
                "priority(",
                "task",
                ")",
                n - 2,
            ),
            ("blocks", "", "if 1 > 0 { ", "", "}", n - 2),
            ("a chain", "let x = 1", " + 1", "", "", n - 2),
        ];
        for (name, head, open, leaf, close, fit) in shapes {
            let src = |k: usize| {
                let body = format!("{head}{}{leaf}{}", open.repeat(k), close.repeat(k));
                format!("policy p\nlists 1\nhook tick {{\n{body}\n}}")
            };
            parse(&src(fit)).unwrap_or_else(|e| panic!("{name} at {fit}: {e}"));
            let err = parse(&src(n)).expect_err(name);
            assert_eq!(err.msg, format!("nesting deeper than {n}"), "{name}");
            assert_eq!(err.span.line, 4, "{name}: {err}");
            assert!(err.span.col > 1, "{name}: {err}");
        }
    }

    #[test]
    fn garbage_never_panics() {
        for src in [
            "",
            "policy",
            "policy p lists",
            "hook { }",
            "policy p\nlists 1\nhook pick_next pick",
            "policy p\nlists 1\nhook pick_next { pick }",
            "policy p\nlists 1\nhook pick_next { let = 3 }",
            "policy p\nlists 1\nhook pick_next { 3 = x }",
        ] {
            assert!(parse(src).is_err(), "{src:?} should fail");
        }
    }
}
