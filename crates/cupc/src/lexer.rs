//! Tokeniser for Cup.

use crate::CompileError;

/// Token kinds. Punctuation is one variant each for cheap matching.
#[derive(Debug, Clone, PartialEq)]
pub enum TokenKind {
    // literals & names
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
    /// String literal (escapes resolved).
    Str(String),
    /// Identifier (a name that is not a keyword).
    Ident(String),
    // keywords
    /// `class`
    Class,
    /// `extends`
    Extends,
    /// `static`
    Static,
    /// `void`
    Void,
    /// `if`
    If,
    /// `else`
    Else,
    /// `while`
    While,
    /// `for`
    For,
    /// `return`
    Return,
    /// `break`
    Break,
    /// `continue`
    Continue,
    /// `new`
    New,
    /// `null`
    Null,
    /// `true`
    True,
    /// `false`
    False,
    /// `this`
    This,
    /// `throw`
    Throw,
    /// `try`
    Try,
    /// `catch`
    Catch,
    /// `sync`
    Sync,
    /// `as` (cast)
    As,
    /// `is` (instanceof)
    Is,
    // punctuation
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `[`
    LBracket,
    /// `]`
    RBracket,
    /// `;`
    Semi,
    /// `,`
    Comma,
    /// `.`
    Dot,
    /// `=`
    Assign,
    /// `+`
    Plus,
    /// `-`
    Minus,
    /// `*`
    Star,
    /// `/`
    Slash,
    /// `%`
    Percent,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==`
    EqEq,
    /// `!=`
    NotEq,
    /// `!`
    Not,
    /// `&&`
    AndAnd,
    /// `||`
    OrOr,
    /// `&`
    Amp,
    /// `|`
    Pipe,
    /// `^`
    Caret,
    /// `<<`
    Shl,
    /// `>>`
    Shr,
    /// End of input.
    Eof,
}

/// A token with its source line (for diagnostics).
#[derive(Debug, Clone, PartialEq)]
pub struct Token {
    /// What the token is.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
}

fn keyword(word: &str) -> Option<TokenKind> {
    Some(match word {
        "class" => TokenKind::Class,
        "extends" => TokenKind::Extends,
        "static" => TokenKind::Static,
        "void" => TokenKind::Void,
        "if" => TokenKind::If,
        "else" => TokenKind::Else,
        "while" => TokenKind::While,
        "for" => TokenKind::For,
        "return" => TokenKind::Return,
        "break" => TokenKind::Break,
        "continue" => TokenKind::Continue,
        "new" => TokenKind::New,
        "null" => TokenKind::Null,
        "true" => TokenKind::True,
        "false" => TokenKind::False,
        "this" => TokenKind::This,
        "throw" => TokenKind::Throw,
        "try" => TokenKind::Try,
        "catch" => TokenKind::Catch,
        "sync" => TokenKind::Sync,
        "as" => TokenKind::As,
        "is" => TokenKind::Is,
        _ => return None,
    })
}

/// Tokenises a source string. `//` line comments and `/* */` block
/// comments are skipped.
pub fn lex(source: &str) -> Result<Vec<Token>, CompileError> {
    let mut tokens = Vec::new();
    let bytes: Vec<char> = source.chars().collect();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = bytes.len();

    macro_rules! push {
        ($kind:expr) => {
            tokens.push(Token { kind: $kind, line })
        };
    }

    while i < n {
        let c = bytes[i];
        match c {
            '\n' => {
                line += 1;
                i += 1;
            }
            ' ' | '\t' | '\r' => i += 1,
            '/' if i + 1 < n && bytes[i + 1] == '/' => {
                while i < n && bytes[i] != '\n' {
                    i += 1;
                }
            }
            '/' if i + 1 < n && bytes[i + 1] == '*' => {
                i += 2;
                while i + 1 < n && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                    if bytes[i] == '\n' {
                        line += 1;
                    }
                    i += 1;
                }
                if i + 1 >= n {
                    return Err(CompileError {
                        line,
                        msg: "unterminated block comment".to_string(),
                    });
                }
                i += 2;
            }
            '0'..='9' => {
                let start = i;
                while i < n && bytes[i].is_ascii_digit() {
                    i += 1;
                }
                if i + 1 < n && bytes[i] == '.' && bytes[i + 1].is_ascii_digit() {
                    i += 1;
                    while i < n && bytes[i].is_ascii_digit() {
                        i += 1;
                    }
                    let text: String = bytes[start..i].iter().collect();
                    let v = text.parse::<f64>().map_err(|_| CompileError {
                        line,
                        msg: format!("bad float literal {text}"),
                    })?;
                    push!(TokenKind::Float(v));
                } else {
                    let text: String = bytes[start..i].iter().collect();
                    let v = text.parse::<i64>().map_err(|_| CompileError {
                        line,
                        msg: format!("bad int literal {text}"),
                    })?;
                    push!(TokenKind::Int(v));
                }
            }
            '"' => {
                i += 1;
                let mut s = String::new();
                loop {
                    if i >= n {
                        return Err(CompileError {
                            line,
                            msg: "unterminated string literal".to_string(),
                        });
                    }
                    match bytes[i] {
                        '"' => {
                            i += 1;
                            break;
                        }
                        '\\' => {
                            i += 1;
                            let esc = bytes.get(i).copied().ok_or(CompileError {
                                line,
                                msg: "dangling escape".to_string(),
                            })?;
                            s.push(match esc {
                                'n' => '\n',
                                't' => '\t',
                                'r' => '\r',
                                '\\' => '\\',
                                '"' => '"',
                                '0' => '\0',
                                other => {
                                    return Err(CompileError {
                                        line,
                                        msg: format!("unknown escape \\{other}"),
                                    })
                                }
                            });
                            i += 1;
                        }
                        '\n' => {
                            return Err(CompileError {
                                line,
                                msg: "newline in string literal".to_string(),
                            })
                        }
                        other => {
                            s.push(other);
                            i += 1;
                        }
                    }
                }
                push!(TokenKind::Str(s));
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                let word: String = bytes[start..i].iter().collect();
                match keyword(&word) {
                    Some(kind) => push!(kind),
                    None => push!(TokenKind::Ident(word)),
                }
            }
            _ => {
                let (kind, advance) = match (c, bytes.get(i + 1).copied()) {
                    ('&', Some('&')) => (TokenKind::AndAnd, 2),
                    ('|', Some('|')) => (TokenKind::OrOr, 2),
                    ('=', Some('=')) => (TokenKind::EqEq, 2),
                    ('!', Some('=')) => (TokenKind::NotEq, 2),
                    ('<', Some('=')) => (TokenKind::Le, 2),
                    ('>', Some('=')) => (TokenKind::Ge, 2),
                    ('<', Some('<')) => (TokenKind::Shl, 2),
                    ('>', Some('>')) => (TokenKind::Shr, 2),
                    ('(', _) => (TokenKind::LParen, 1),
                    (')', _) => (TokenKind::RParen, 1),
                    ('{', _) => (TokenKind::LBrace, 1),
                    ('}', _) => (TokenKind::RBrace, 1),
                    ('[', _) => (TokenKind::LBracket, 1),
                    (']', _) => (TokenKind::RBracket, 1),
                    (';', _) => (TokenKind::Semi, 1),
                    (',', _) => (TokenKind::Comma, 1),
                    ('.', _) => (TokenKind::Dot, 1),
                    ('=', _) => (TokenKind::Assign, 1),
                    ('+', _) => (TokenKind::Plus, 1),
                    ('-', _) => (TokenKind::Minus, 1),
                    ('*', _) => (TokenKind::Star, 1),
                    ('/', _) => (TokenKind::Slash, 1),
                    ('%', _) => (TokenKind::Percent, 1),
                    ('<', _) => (TokenKind::Lt, 1),
                    ('>', _) => (TokenKind::Gt, 1),
                    ('!', _) => (TokenKind::Not, 1),
                    ('&', _) => (TokenKind::Amp, 1),
                    ('|', _) => (TokenKind::Pipe, 1),
                    ('^', _) => (TokenKind::Caret, 1),
                    (other, _) => {
                        return Err(CompileError {
                            line,
                            msg: format!("unexpected character {other:?}"),
                        })
                    }
                };
                push!(kind);
                i += advance;
            }
        }
    }
    tokens.push(Token {
        kind: TokenKind::Eof,
        line,
    });
    Ok(tokens)
}
