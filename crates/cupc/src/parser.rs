//! Recursive-descent parser for Cup.

use crate::ast::*;
use crate::lexer::{Token, TokenKind};
use crate::CompileError;

/// Deepest nesting the parser accepts. A nested statement, a nested
/// expression (parenthesised, an index or an argument), a unary operator
/// and a dimension of an array type each count one level, and so does
/// every node an operator or postfix chain stacks on its first operand.
/// Deeper source is a `CompileError`, so neither the parser nor a later
/// walk of the tree (codegen, and dropping it) can exhaust the host stack.
/// 128 is ten times the deepest shipped guest (13), and at about 14 KB of
/// stack per level in an unoptimised build (1.3 KB optimised) the parser
/// and codegen still fit a 2 MiB thread stack.
pub(crate) const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    /// Statements and expressions currently being parsed around the cursor.
    nesting: u32,
}

/// An expression with the depth of its tree (a leaf has depth 1).
type Parsed = (Expr, u32);

/// Binary operators by precedence level, loosest first; every level is
/// left-associative.
const BINARY_LEVELS: [&[(TokenKind, BinOp)]; 10] = [
    &[(TokenKind::OrOr, BinOp::Or)],
    &[(TokenKind::AndAnd, BinOp::And)],
    &[(TokenKind::Pipe, BinOp::BitOr)],
    &[(TokenKind::Caret, BinOp::BitXor)],
    &[(TokenKind::Amp, BinOp::BitAnd)],
    &[(TokenKind::EqEq, BinOp::Eq), (TokenKind::NotEq, BinOp::Ne)],
    &[
        (TokenKind::Lt, BinOp::Lt),
        (TokenKind::Le, BinOp::Le),
        (TokenKind::Gt, BinOp::Gt),
        (TokenKind::Ge, BinOp::Ge),
    ],
    &[(TokenKind::Shl, BinOp::Shl), (TokenKind::Shr, BinOp::Shr)],
    &[
        (TokenKind::Plus, BinOp::Add),
        (TokenKind::Minus, BinOp::Sub),
    ],
    &[
        (TokenKind::Star, BinOp::Mul),
        (TokenKind::Slash, BinOp::Div),
        (TokenKind::Percent, BinOp::Rem),
    ],
];

/// Parses a whole compilation unit (a list of class declarations). The
/// tokens must end in `Eof`, as [`crate::lex`]'s do; the cursor never moves
/// past it.
pub fn parse_program(toks: &[Token]) -> Result<Vec<ClassDecl>, CompileError> {
    if toks.last().map(|t| &t.kind) != Some(&TokenKind::Eof) {
        return Err(CompileError {
            line: toks.last().map_or(1, |t| t.line),
            msg: "token stream does not end in Eof".to_string(),
        });
    }
    let mut p = Parser {
        toks,
        pos: 0,
        nesting: 0,
    };
    let mut classes = Vec::new();
    while !p.at(TokenKind::Eof) {
        classes.push(p.class_decl()?);
    }
    Ok(classes)
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &TokenKind {
        &self.toks[self.pos].kind
    }

    fn peek2(&self) -> &TokenKind {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].kind
    }

    fn line(&self) -> u32 {
        self.toks[self.pos].line
    }

    fn at(&self, kind: TokenKind) -> bool {
        *self.peek() == kind
    }

    fn bump(&mut self) -> TokenKind {
        let k = self.toks[self.pos].kind.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        k
    }

    fn eat(&mut self, kind: TokenKind) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, kind: TokenKind, what: &str) -> Result<(), CompileError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error(format!("expected {what}, found {:?}", self.peek())))
        }
    }

    fn error(&self, msg: String) -> CompileError {
        CompileError {
            line: self.line(),
            msg,
        }
    }

    /// Refuses source nested past [`MAX_DEPTH`] at `depth`.
    fn check_depth(&self, depth: u32) -> Result<(), CompileError> {
        if depth > MAX_DEPTH {
            return Err(self.error(format!("nested deeper than {MAX_DEPTH} levels")));
        }
        Ok(())
    }

    /// Runs `parse` one nesting level deeper.
    fn nested<T>(
        &mut self,
        parse: impl FnOnce(&mut Self) -> Result<T, CompileError>,
    ) -> Result<T, CompileError> {
        self.check_depth(self.nesting + 1)?;
        self.nesting += 1;
        let parsed = parse(self);
        self.nesting -= 1;
        parsed
    }

    /// `e`, a node whose deepest child has tree depth `child`, unless it
    /// would nest past [`MAX_DEPTH`] where it stands.
    fn node(&self, child: u32, e: Expr) -> Result<Parsed, CompileError> {
        self.check_depth(self.nesting + child + 1)?;
        Ok((e, child + 1))
    }

    fn ident(&mut self, what: &str) -> Result<String, CompileError> {
        match self.peek().clone() {
            TokenKind::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(format!("expected {what}, found {other:?}"))),
        }
    }

    // ---- declarations ---------------------------------------------------

    fn class_decl(&mut self) -> Result<ClassDecl, CompileError> {
        let line = self.line();
        self.expect_tok(TokenKind::Class, "`class`")?;
        let name = self.ident("class name")?;
        let extends = if self.eat(TokenKind::Extends) {
            Some(self.ident("superclass name")?)
        } else {
            None
        };
        self.expect_tok(TokenKind::LBrace, "`{`")?;
        let mut fields = Vec::new();
        let mut methods = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            self.member(&name, &mut fields, &mut methods)?;
        }
        Ok(ClassDecl {
            name,
            extends,
            fields,
            methods,
            line,
        })
    }

    fn member(
        &mut self,
        class_name: &str,
        fields: &mut Vec<FieldDecl>,
        methods: &mut Vec<MethodDecl>,
    ) -> Result<(), CompileError> {
        let line = self.line();
        let is_static = self.eat(TokenKind::Static);

        // Constructor: `init(params) { ... }` or `ClassName(params)`.
        if let TokenKind::Ident(name) = self.peek().clone() {
            if (name == "init" || name == class_name) && *self.peek2() == TokenKind::LParen {
                self.bump();
                let params = self.params()?;
                let body = self.block()?;
                methods.push(MethodDecl {
                    name: "init".to_string(),
                    ret: None,
                    params,
                    is_static: false,
                    body,
                    line,
                });
                return Ok(());
            }
        }

        // `void name(...)` method.
        if self.eat(TokenKind::Void) {
            let name = self.ident("method name")?;
            let params = self.params()?;
            let body = self.block()?;
            methods.push(MethodDecl {
                name,
                ret: None,
                params,
                is_static,
                body,
                line,
            });
            return Ok(());
        }

        // `ty name;` field or `ty name(...)` method.
        let ty = self.ty()?;
        let name = self.ident("member name")?;
        if self.at(TokenKind::LParen) {
            let params = self.params()?;
            let body = self.block()?;
            methods.push(MethodDecl {
                name,
                ret: Some(ty),
                params,
                is_static,
                body,
                line,
            });
        } else {
            self.expect_tok(TokenKind::Semi, "`;` after field")?;
            fields.push(FieldDecl {
                name,
                ty,
                is_static,
                line,
            });
        }
        Ok(())
    }

    fn params(&mut self) -> Result<Vec<(String, Ty)>, CompileError> {
        self.expect_tok(TokenKind::LParen, "`(`")?;
        let mut params = Vec::new();
        if !self.at(TokenKind::RParen) {
            loop {
                let ty = self.ty()?;
                let name = self.ident("parameter name")?;
                params.push((name, ty));
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect_tok(TokenKind::RParen, "`)`")?;
        Ok(params)
    }

    fn ty(&mut self) -> Result<Ty, CompileError> {
        let base = match self.peek().clone() {
            TokenKind::Ident(name) => {
                self.bump();
                match name.as_str() {
                    "int" => Ty::Int,
                    "float" => Ty::Float,
                    "bool" => Ty::Bool,
                    "String" => Ty::Str,
                    _ => Ty::Class(name),
                }
            }
            other => return Err(self.error(format!("expected a type, found {other:?}"))),
        };
        let mut ty = base;
        let mut dims = 0;
        while self.at(TokenKind::LBracket) && *self.peek2() == TokenKind::RBracket {
            dims += 1;
            self.check_depth(dims)?;
            self.bump();
            self.bump();
            ty = Ty::Array(Box::new(ty));
        }
        Ok(ty)
    }

    // ---- statements -------------------------------------------------------

    fn block(&mut self) -> Result<Vec<Stmt>, CompileError> {
        self.expect_tok(TokenKind::LBrace, "`{`")?;
        let mut stmts = Vec::new();
        while !self.eat(TokenKind::RBrace) {
            stmts.push(self.stmt()?);
        }
        Ok(stmts)
    }

    fn stmt(&mut self) -> Result<Stmt, CompileError> {
        self.nested(Self::stmt_here)
    }

    fn stmt_here(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        match self.peek().clone() {
            TokenKind::LBrace => Ok(Stmt::Block(self.block()?)),
            TokenKind::If => {
                self.bump();
                self.expect_tok(TokenKind::LParen, "`(`")?;
                let cond = self.expr()?;
                self.expect_tok(TokenKind::RParen, "`)`")?;
                let then_body = self.block_or_stmt()?;
                let else_body = if self.eat(TokenKind::Else) {
                    if self.at(TokenKind::If) {
                        vec![self.stmt()?]
                    } else {
                        self.block_or_stmt()?
                    }
                } else {
                    Vec::new()
                };
                Ok(Stmt::If {
                    cond,
                    then_body,
                    else_body,
                    line,
                })
            }
            TokenKind::While => {
                self.bump();
                self.expect_tok(TokenKind::LParen, "`(`")?;
                let cond = self.expr()?;
                self.expect_tok(TokenKind::RParen, "`)`")?;
                let body = self.block_or_stmt()?;
                Ok(Stmt::While { cond, body, line })
            }
            TokenKind::For => {
                self.bump();
                self.expect_tok(TokenKind::LParen, "`(`")?;
                let init = if self.at(TokenKind::Semi) {
                    None
                } else {
                    Some(self.simple_stmt()?)
                };
                self.expect_tok(TokenKind::Semi, "`;` after for-init")?;
                let cond = if self.at(TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_tok(TokenKind::Semi, "`;` after for-condition")?;
                let update = if self.at(TokenKind::RParen) {
                    None
                } else {
                    Some(self.simple_stmt()?)
                };
                self.expect_tok(TokenKind::RParen, "`)`")?;
                let body = self.block_or_stmt()?;
                Ok(Stmt::For {
                    init: Box::new(init),
                    cond,
                    update: Box::new(update),
                    body,
                    line,
                })
            }
            TokenKind::Return => {
                self.bump();
                let value = if self.at(TokenKind::Semi) {
                    None
                } else {
                    Some(self.expr()?)
                };
                self.expect_tok(TokenKind::Semi, "`;` after return")?;
                Ok(Stmt::Return { value, line })
            }
            TokenKind::Break => {
                self.bump();
                self.expect_tok(TokenKind::Semi, "`;` after break")?;
                Ok(Stmt::Break { line })
            }
            TokenKind::Continue => {
                self.bump();
                self.expect_tok(TokenKind::Semi, "`;` after continue")?;
                Ok(Stmt::Continue { line })
            }
            TokenKind::Throw => {
                self.bump();
                let value = self.expr()?;
                self.expect_tok(TokenKind::Semi, "`;` after throw")?;
                Ok(Stmt::Throw { value, line })
            }
            TokenKind::Try => {
                self.bump();
                let body = self.block()?;
                let mut catches = Vec::new();
                while self.at(TokenKind::Catch) {
                    let cline = self.line();
                    self.bump();
                    self.expect_tok(TokenKind::LParen, "`(`")?;
                    let class = self.ident("exception class")?;
                    let var = self.ident("exception variable")?;
                    self.expect_tok(TokenKind::RParen, "`)`")?;
                    let cbody = self.block()?;
                    catches.push(CatchClause {
                        class,
                        var,
                        body: cbody,
                        line: cline,
                    });
                }
                if catches.is_empty() {
                    return Err(self.error("try without catch".to_string()));
                }
                Ok(Stmt::Try {
                    body,
                    catches,
                    line,
                })
            }
            TokenKind::Sync => {
                self.bump();
                self.expect_tok(TokenKind::LParen, "`(`")?;
                let lock = self.expr()?;
                self.expect_tok(TokenKind::RParen, "`)`")?;
                let body = self.block()?;
                Ok(Stmt::Sync { lock, body, line })
            }
            _ => {
                let s = self.simple_stmt()?;
                self.expect_tok(TokenKind::Semi, "`;`")?;
                Ok(s)
            }
        }
    }

    fn block_or_stmt(&mut self) -> Result<Vec<Stmt>, CompileError> {
        if self.at(TokenKind::LBrace) {
            self.block()
        } else {
            Ok(vec![self.stmt()?])
        }
    }

    /// Statement without trailing `;`: var decl, assignment, or expression.
    fn simple_stmt(&mut self) -> Result<Stmt, CompileError> {
        let line = self.line();
        // Variable declaration: `ty name [= expr]` — detected by a type
        // followed by an identifier (with optional `[]` pairs between).
        if self.looks_like_decl() {
            let ty = self.ty()?;
            let name = self.ident("variable name")?;
            let init = if self.eat(TokenKind::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            return Ok(Stmt::VarDecl {
                ty,
                name,
                init,
                line,
            });
        }
        let e = self.expr()?;
        if self.eat(TokenKind::Assign) {
            let value = self.expr()?;
            return Ok(Stmt::Assign {
                target: e,
                value,
                line,
            });
        }
        Ok(Stmt::Expr(e))
    }

    /// Lookahead: `Ident` (type name) followed by `Ident`, possibly with
    /// `[]` pairs between — a declaration rather than an expression.
    fn looks_like_decl(&self) -> bool {
        let TokenKind::Ident(_) = self.peek() else {
            return false;
        };
        let mut i = self.pos + 1;
        while self.toks.get(i).map(|t| &t.kind) == Some(&TokenKind::LBracket)
            && self.toks.get(i + 1).map(|t| &t.kind) == Some(&TokenKind::RBracket)
        {
            i += 2;
        }
        matches!(self.toks.get(i).map(|t| &t.kind), Some(TokenKind::Ident(_)))
    }

    // ---- expressions --------------------------------------------------------

    fn expr(&mut self) -> Result<Expr, CompileError> {
        Ok(self.nested_expr()?.0)
    }

    fn nested_expr(&mut self) -> Result<Parsed, CompileError> {
        self.nested(|p| p.binary(0))
    }

    /// Operands joined by binary operators of `BINARY_LEVELS[min_level..]`,
    /// by precedence climbing: a chain of one level is built in a loop, and
    /// only a tighter operator on the right recurses.
    fn binary(&mut self, min_level: usize) -> Result<Parsed, CompileError> {
        let (mut lhs, mut depth) = self.unary_expr()?;
        while let Some((level, op)) = self.binary_op().filter(|&(level, _)| level >= min_level) {
            let line = self.line();
            self.bump();
            let (rhs, rhs_depth) = self.binary(level + 1)?;
            (lhs, depth) = self.node(
                depth.max(rhs_depth),
                Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                    line,
                },
            )?;
        }
        Ok((lhs, depth))
    }

    /// The binary operator at the cursor and its precedence level.
    fn binary_op(&self) -> Option<(usize, BinOp)> {
        BINARY_LEVELS.iter().enumerate().find_map(|(level, ops)| {
            let (_, op) = ops.iter().find(|(kind, _)| self.peek() == kind)?;
            Some((level, *op))
        })
    }

    fn unary_expr(&mut self) -> Result<Parsed, CompileError> {
        let line = self.line();
        let op = if self.eat(TokenKind::Minus) {
            UnOp::Neg
        } else if self.eat(TokenKind::Not) {
            UnOp::Not
        } else {
            return self.postfix_expr();
        };
        let (operand, depth) = self.nested(Self::unary_expr)?;
        self.node(
            depth,
            Expr::Unary {
                op,
                operand: Box::new(operand),
                line,
            },
        )
    }

    fn postfix_expr(&mut self) -> Result<Parsed, CompileError> {
        let (mut e, mut depth) = self.primary_expr()?;
        loop {
            let line = self.line();
            (e, depth) = if self.eat(TokenKind::Dot) {
                let name = self.ident("member name")?;
                if self.at(TokenKind::LParen) {
                    let (args, args_depth) = self.args()?;
                    let recv = Box::new(e);
                    let call = Expr::Call {
                        recv,
                        method: name,
                        args,
                        line,
                    };
                    self.node(depth.max(args_depth), call)?
                } else {
                    let recv = Box::new(e);
                    self.node(depth, Expr::Field { recv, name, line })?
                }
            } else if self.eat(TokenKind::LBracket) {
                let (idx, idx_depth) = self.nested_expr()?;
                self.expect_tok(TokenKind::RBracket, "`]`")?;
                let index = Expr::Index {
                    arr: Box::new(e),
                    idx: Box::new(idx),
                    line,
                };
                self.node(depth.max(idx_depth), index)?
            } else if self.eat(TokenKind::As) {
                let class = self.ident("class name after `as`")?;
                let value = Box::new(e);
                self.node(depth, Expr::Cast { value, class, line })?
            } else if self.eat(TokenKind::Is) {
                let class = self.ident("class name after `is`")?;
                let value = Box::new(e);
                self.node(depth, Expr::InstanceOf { value, class, line })?
            } else {
                break;
            };
        }
        Ok((e, depth))
    }

    /// A parenthesised argument list and the depth of its deepest argument.
    fn args(&mut self) -> Result<(Vec<Expr>, u32), CompileError> {
        self.expect_tok(TokenKind::LParen, "`(`")?;
        let mut args = Vec::new();
        let mut depth = 0;
        if !self.at(TokenKind::RParen) {
            loop {
                let (arg, arg_depth) = self.nested_expr()?;
                args.push(arg);
                depth = depth.max(arg_depth);
                if !self.eat(TokenKind::Comma) {
                    break;
                }
            }
        }
        self.expect_tok(TokenKind::RParen, "`)`")?;
        Ok((args, depth))
    }

    fn primary_expr(&mut self) -> Result<Parsed, CompileError> {
        let line = self.line();
        let leaf = match self.peek().clone() {
            TokenKind::Int(v) => Expr::IntLit(v, line),
            TokenKind::Float(v) => Expr::FloatLit(v, line),
            TokenKind::Str(s) => Expr::StrLit(s, line),
            TokenKind::True => Expr::BoolLit(true, line),
            TokenKind::False => Expr::BoolLit(false, line),
            TokenKind::Null => Expr::Null(line),
            TokenKind::This => Expr::This(line),
            TokenKind::LParen => {
                self.bump();
                let inner = self.nested_expr()?;
                self.expect_tok(TokenKind::RParen, "`)`")?;
                return Ok(inner);
            }
            TokenKind::New => {
                self.bump();
                // `new C(args)` or `new ty[len]` (possibly multi-dim base).
                let base = self.ty()?;
                return if self.at(TokenKind::LParen) {
                    let Ty::Class(class) = base else {
                        return Err(self.error("`new` of a non-class type".to_string()));
                    };
                    let (args, depth) = self.args()?;
                    self.node(depth, Expr::New { class, args, line })
                } else if self.eat(TokenKind::LBracket) {
                    let (len, depth) = self.nested_expr()?;
                    self.expect_tok(TokenKind::RBracket, "`]`")?;
                    let new_array = Expr::NewArray {
                        elem: base,
                        len: Box::new(len),
                        line,
                    };
                    self.node(depth, new_array)
                } else {
                    Err(self.error("expected `(` or `[` after `new`".to_string()))
                };
            }
            TokenKind::Ident(name) => {
                self.bump();
                return if self.at(TokenKind::LParen) {
                    let (args, depth) = self.args()?;
                    let call = Expr::SelfCall {
                        method: name,
                        args,
                        line,
                    };
                    self.node(depth, call)
                } else {
                    self.node(0, Expr::Var(name, line))
                };
            }
            other => return Err(self.error(format!("unexpected token {other:?} in expression"))),
        };
        self.bump();
        self.node(0, leaf)
    }
}
