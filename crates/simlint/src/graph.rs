//! Workspace symbol graph: functions, impl owners, call sites, enums,
//! match sites, consts and `use` imports, resolved across files and
//! crate boundaries.
//!
//! This is the substrate for every inter-procedural rule: transitive
//! D1–D3 taint walks the call edges, D6 reads lock declarations through
//! the struct-field table, and D7 cross-checks enum declarations against
//! match sites and codec functions. The parser is a single linear pass
//! over the token stream per file (item stacks for `impl`/`fn` nesting),
//! deliberately tolerant: unparseable shapes are skipped, never fatal —
//! for a linter, a missed edge beats a crash.

use std::collections::BTreeMap;

use crate::lexer::{Lexed, Tok, Token};
use crate::workspace::{self, Tier};

/// Method names owned by std containers/iterators/smart pointers. A
/// `.name(` call with one of these names is never linked to a workspace
/// function of the same name: the receiver is almost always a std type,
/// and a false edge into user code would manufacture taint chains.
const BUILTIN_METHODS: &[&str] = &[
    "new",
    "clone",
    "clone_from",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "contains",
    "contains_key",
    "clear",
    "drain",
    "retain",
    "keys",
    "values",
    "values_mut",
    "entry",
    "extend",
    "sort",
    "sort_by",
    "sort_unstable",
    "sort_by_key",
    "map",
    "filter",
    "fold",
    "collect",
    "unwrap",
    "expect",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok",
    "err",
    "take",
    "replace",
    "as_ref",
    "as_mut",
    "as_str",
    "as_slice",
    "to_string",
    "to_vec",
    "to_owned",
    "into",
    "from",
    "fmt",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "default",
    "drop",
    "send",
    "recv",
    "join",
    "lock",
    "read",
    "write",
    "min",
    "max",
    "abs",
    "first",
    "last",
    "split",
    "trim",
    "parse",
    "chars",
    "lines",
    "bytes",
    "starts_with",
    "ends_with",
    "find",
    "position",
    "any",
    "all",
    "count",
    "sum",
    "product",
    "zip",
    "rev",
    "enumerate",
    "flat_map",
    "flatten",
    "chain",
    "skip",
    "windows",
    "chunks",
    "binary_search",
    "binary_search_by",
    "push_str",
    "get_or_init",
    "saturating_sub",
    "saturating_add",
    "wrapping_add",
    "checked_sub",
    "checked_add",
];

/// Rust keywords that look like call heads when followed by `(`.
const KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "return", "loop", "in", "as", "let", "else", "move", "ref",
    "mut", "box", "await", "yield", "where", "use", "pub", "unsafe", "dyn", "impl", "fn",
];

/// Per-file metadata carried alongside the lexed tokens.
#[derive(Clone, Debug)]
pub struct FileMeta {
    /// Root-relative path, forward slashes.
    pub rel: String,
    /// Owning crate key ([`workspace::crate_key`]).
    pub crate_key: String,
    /// Determinism tier of the owning crate.
    pub tier: Tier,
    /// Whole file is test-only (tests/, examples/).
    pub is_test_path: bool,
}

/// A function (free, associated or method) discovered in the workspace.
#[derive(Clone, Debug)]
pub struct FnInfo {
    /// Function name (raw-identifier prefix stripped).
    pub name: String,
    /// `impl` owner type when inside an impl block.
    pub owner: Option<String>,
    /// Index into the graph's file table.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body, braces included; `None` for
    /// bodyless declarations (trait methods, extern).
    pub body: Option<(usize, usize)>,
    /// True when the function lives in test-only code (path- or
    /// `#[cfg(test)]`-level).
    pub is_test: bool,
    /// The declared return type resolves to a hash container (possibly
    /// through `Arc`/`Box`/`Rc`/`&`).
    pub returns_hash: bool,
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CallQual {
    /// Bare `name(…)`.
    Free,
    /// Method syntax `recv.name(…)`.
    Method,
    /// Path syntax `Qual::name(…)`; the qualifier is the path segment
    /// directly before the callee (`TentSet`, `ocpt_core`, `self`, …).
    Path(String),
}

/// One call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Index of the calling function.
    pub caller: usize,
    /// Callee name as written.
    pub name: String,
    /// Qualifier shape.
    pub qual: CallQual,
    /// 1-based line.
    pub line: u32,
}

/// An `enum` declaration.
#[derive(Clone, Debug)]
pub struct EnumInfo {
    /// Enum name.
    pub name: String,
    /// Declaring file index.
    pub file: usize,
    /// 1-based line of the declaration.
    pub line: u32,
    /// Variant names, declaration order.
    pub variants: Vec<String>,
}

/// A `Enum::Variant` path occurrence (pattern or expression position).
#[derive(Clone, Debug)]
pub struct VariantRef {
    /// Referenced enum name.
    pub enum_name: String,
    /// Referenced variant.
    pub variant: String,
    /// File index.
    pub file: usize,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function, when inside one.
    pub in_fn: Option<usize>,
}

/// One arm of a `match` expression.
#[derive(Clone, Debug)]
pub struct MatchArm {
    /// 1-based line the pattern starts on.
    pub line: u32,
    /// `(Enum, Variant)` paths appearing in the pattern (guard included).
    pub pats: Vec<(String, String)>,
    /// The arm is a bare `_` or a bare binding — a catch-all.
    pub catch_all: bool,
}

/// A `match` expression with its parsed arms.
#[derive(Clone, Debug)]
pub struct MatchSite {
    /// File index.
    pub file: usize,
    /// 1-based line of the `match` keyword.
    pub line: u32,
    /// The match lives in test-only code.
    pub is_test: bool,
    /// Parsed arms.
    pub arms: Vec<MatchArm>,
}

/// A `const NAME` declaration.
#[derive(Clone, Debug)]
pub struct ConstInfo {
    /// Const name.
    pub name: String,
    /// File index.
    pub file: usize,
    /// 1-based line.
    pub line: u32,
}

/// A reference to a known const (collected in the second phase).
#[derive(Clone, Debug)]
pub struct ConstRef {
    /// Referenced const name.
    pub name: String,
    /// File index.
    pub file: usize,
    /// 1-based line.
    pub line: u32,
    /// Enclosing function, when inside one.
    pub in_fn: Option<usize>,
}

/// A struct field whose type resolves to a hash container — the
/// cross-file half of D2's binding table.
#[derive(Clone, Debug)]
pub struct HashField {
    /// Field name.
    pub name: String,
    /// Declaring struct.
    pub owner: String,
    /// File index.
    pub file: usize,
    /// 1-based line.
    pub line: u32,
}

/// The assembled workspace graph.
#[derive(Clone, Debug, Default)]
pub struct Graph {
    /// File table (parallel to the lexed inputs).
    pub files: Vec<FileMeta>,
    /// All functions.
    pub fns: Vec<FnInfo>,
    /// All call sites.
    pub calls: Vec<CallSite>,
    /// All enum declarations.
    pub enums: Vec<EnumInfo>,
    /// All `Enum::Variant` references (second phase, known enums only).
    pub vrefs: Vec<VariantRef>,
    /// All match sites.
    pub matches: Vec<MatchSite>,
    /// All const declarations.
    pub consts: Vec<ConstInfo>,
    /// References to known consts (second phase).
    pub const_refs: Vec<ConstRef>,
    /// Hash-typed struct fields, workspace-wide.
    pub hash_fields: Vec<HashField>,
    /// Per-file imports: `(file, local name, source crate key)`; built
    /// from `use` declarations whose root is a workspace crate (or
    /// `crate`/`self`/`super`). Names imported from external roots map
    /// to the reserved key `"::external"`.
    pub imports: Vec<(usize, String, String)>,
    by_name: BTreeMap<String, Vec<usize>>,
}

/// Map a `use`-path root to a crate key: `ocpt_sim`/`ocpt-sim` → `sim`,
/// `crate`/`self`/`super` → the current crate, known externals → the
/// reserved `"::external"` marker, anything else → `None` (unresolvable).
fn root_to_crate(root: &str, current: &str) -> Option<String> {
    if let Some(rest) = root.strip_prefix("ocpt_") {
        return Some(rest.to_string());
    }
    if root == "simlint" {
        return Some("simlint".to_string());
    }
    if root == "crate" || root == "self" || root == "super" {
        return Some(current.to_string());
    }
    if matches!(root, "std" | "core" | "alloc" | "bytes" | "proptest") {
        return Some("::external".to_string());
    }
    None
}

impl Graph {
    /// Build the graph over lexed files. `files` pairs each lexed source
    /// with its root-relative path.
    pub fn build(files: &[(String, Lexed)]) -> Graph {
        let mut g = Graph::default();
        for (rel, _) in files {
            let key = workspace::crate_key(rel);
            g.files.push(FileMeta {
                rel: rel.clone(),
                tier: workspace::tier_of(&key),
                is_test_path: workspace::path_is_test(rel),
                crate_key: key,
            });
        }
        // Phase 1: items, calls, matches, imports per file.
        for (fi, (_, lexed)) in files.iter().enumerate() {
            parse_file(&mut g, fi, lexed);
        }
        // Phase 2: enum-variant and const references need the full
        // declaration tables.
        let enum_table: BTreeMap<&str, &EnumInfo> =
            g.enums.iter().map(|e| (e.name.as_str(), e)).collect();
        let const_names: Vec<&str> = g.consts.iter().map(|c| c.name.as_str()).collect();
        let mut vrefs = Vec::new();
        let mut const_refs = Vec::new();
        for (fi, (_, lexed)) in files.iter().enumerate() {
            collect_refs(&g, fi, lexed, &enum_table, &const_names, &mut vrefs, &mut const_refs);
        }
        g.vrefs = vrefs;
        g.const_refs = const_refs;
        for (i, f) in g.fns.iter().enumerate() {
            g.by_name.entry(f.name.clone()).or_default().push(i);
        }
        g
    }

    /// Candidate callee function ids for a call site, conservatively
    /// resolved: exact name match, narrowed by qualifier (crate path,
    /// impl owner) and by `use` imports; `.method(` calls with std
    /// container names are never linked.
    pub fn resolve(&self, call: &CallSite) -> Vec<usize> {
        let Some(cands) = self.by_name.get(&call.name) else { return Vec::new() };
        let caller_file = self.fns[call.caller].file;
        let caller_crate = &self.files[caller_file].crate_key;
        match &call.qual {
            CallQual::Method => {
                if BUILTIN_METHODS.contains(&call.name.as_str()) {
                    return Vec::new();
                }
                cands.iter().copied().filter(|&i| self.fns[i].owner.is_some()).collect()
            }
            CallQual::Path(q) => {
                // Crate-qualified path: `ocpt_core::f`, `crate::f`, …
                if let Some(krate) = root_to_crate(q, caller_crate) {
                    if krate == "::external" {
                        return Vec::new();
                    }
                    return cands
                        .iter()
                        .copied()
                        .filter(|&i| self.files[self.fns[i].file].crate_key == krate)
                        .collect();
                }
                // Type-qualified associated call: `TentSet::from_wire`.
                let owner =
                    if q == "Self" { self.fns[call.caller].owner.clone() } else { Some(q.clone()) };
                cands
                    .iter()
                    .copied()
                    .filter(|&i| self.fns[i].owner.as_deref() == owner.as_deref())
                    .collect()
            }
            CallQual::Free => {
                // An explicit import pins the source crate.
                if let Some((_, _, krate)) =
                    self.imports.iter().find(|(f, n, _)| *f == caller_file && n == &call.name)
                {
                    if krate == "::external" {
                        return Vec::new();
                    }
                    return cands
                        .iter()
                        .copied()
                        .filter(|&i| self.files[self.fns[i].file].crate_key == *krate)
                        .collect();
                }
                // Prefer same file, then same crate, then anywhere.
                let free: Vec<usize> =
                    cands.iter().copied().filter(|&i| self.fns[i].owner.is_none()).collect();
                let same_file: Vec<usize> =
                    free.iter().copied().filter(|&i| self.fns[i].file == caller_file).collect();
                if !same_file.is_empty() {
                    return same_file;
                }
                let same_crate: Vec<usize> = free
                    .iter()
                    .copied()
                    .filter(|&i| &self.files[self.fns[i].file].crate_key == caller_crate)
                    .collect();
                if !same_crate.is_empty() {
                    return same_crate;
                }
                free
            }
        }
    }

    /// The function whose body span contains token index `tok` of file
    /// `file`, if any (innermost wins).
    pub fn fn_at(&self, file: usize, tok: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut best_width = usize::MAX;
        for (i, f) in self.fns.iter().enumerate() {
            if f.file != file {
                continue;
            }
            if let Some((a, b)) = f.body {
                if a <= tok && tok < b && b - a < best_width {
                    best = Some(i);
                    best_width = b - a;
                }
            }
        }
        best
    }

    /// Human-readable qualified name `crate::Owner::name`.
    pub fn fq_name(&self, id: usize) -> String {
        let f = &self.fns[id];
        let krate = &self.files[f.file].crate_key;
        match &f.owner {
            Some(o) => format!("{krate}::{o}::{}", f.name),
            None => format!("{krate}::{}", f.name),
        }
    }
}

/// True when the token slice starting a type (or constructor expression)
/// resolves to a hash container. Deref-transparent wrappers (`Arc`,
/// `Box`, `Rc`, references) are looked through; ordered containers
/// (`Vec`, `Option`, `BTreeMap`, …) terminate the scan — iterating
/// `Vec<HashMap<…>>` yields the maps in Vec order, which is
/// deterministic, so the outer type decides.
pub fn type_is_hash(toks: &[Token]) -> bool {
    const HASH: &[&str] = &["HashMap", "HashSet"];
    const TRANSPARENT: &[&str] = &["Arc", "Rc", "Box", "Cow"];
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].tok {
            Tok::Punct('&') | Tok::Punct('<') | Tok::Lifetime => i += 1,
            Tok::Ident(w) if w == "mut" || w == "dyn" || w == "impl" => i += 1,
            t => {
                let Some(w) = t.ident() else { return false };
                // Path prefix `seg::` — skip, unless the segment itself
                // is the hash type (`HashMap::new()`).
                let is_path_prefix = toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                    && toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct(':'));
                if HASH.contains(&w) {
                    return true;
                }
                if is_path_prefix {
                    i += 3;
                    continue;
                }
                if TRANSPARENT.contains(&w) {
                    // Look through the wrapper into its generic args.
                    i += 1;
                    continue;
                }
                return false;
            }
        }
    }
    false
}

/// Extent of a type starting at `start`: scan to the first
/// `, ; ) { } =` at angle depth 0 (the same boundary rules the binding
/// collector uses).
fn type_end(toks: &[Token], start: usize) -> usize {
    let mut angle = 0i32;
    let mut j = start;
    while j < toks.len() {
        match &toks[j].tok {
            Tok::Punct('<') => angle += 1,
            Tok::Punct('>') => angle -= 1,
            Tok::Punct(',')
            | Tok::Punct(';')
            | Tok::Punct(')')
            | Tok::Punct('{')
            | Tok::Punct('}')
            | Tok::Punct('=')
                if angle <= 0 =>
            {
                break;
            }
            _ => {}
        }
        j += 1;
    }
    j
}

/// Skip a balanced group opening at `toks[i]` (one of `( [ {` or `<`),
/// returning the index just past its close. For `<` only `<`/`>` nest.
fn skip_group(toks: &[Token], i: usize) -> usize {
    let (open, close) = match toks[i].tok {
        Tok::Punct('(') => ('(', ')'),
        Tok::Punct('[') => ('[', ']'),
        Tok::Punct('{') => ('{', '}'),
        Tok::Punct('<') => ('<', '>'),
        _ => return i + 1,
    };
    let mut depth = 0i32;
    let mut j = i;
    while j < toks.len() {
        match toks[j].tok {
            Tok::Punct(c) if c == open => depth += 1,
            Tok::Punct(c) if c == close => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.len()
}

/// Phase-1 parse of one file: functions (with impl owners), calls,
/// enums, structs, consts, matches and imports.
fn parse_file(g: &mut Graph, fi: usize, lexed: &Lexed) {
    let toks = &lexed.tokens;
    let meta = g.files[fi].clone();
    let n = toks.len();

    // Stacks of open scopes, as (end token index, payload).
    let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new();
    let mut fn_stack: Vec<(usize, usize)> = Vec::new(); // (body end, fn id)

    let mut i = 0usize;
    while i < n {
        impl_stack.retain(|&(end, _)| i < end);
        fn_stack.retain(|&(end, _)| i < end);
        let line = toks[i].line;
        let in_test = meta.is_test_path
            || lexed.in_test_code(line)
            || fn_stack.last().is_some_and(|&(_, id)| g.fns[id].is_test);

        match &toks[i].tok {
            Tok::Ident(w) if w == "impl" => {
                // Header runs to the opening brace; `for` marks a trait
                // impl whose subject follows it.
                let mut j = i + 1;
                if j < n && toks[j].tok == Tok::Punct('<') {
                    j = skip_group(toks, j);
                }
                let header_end = {
                    let mut k = j;
                    while k < n && toks[k].tok != Tok::Punct('{') && toks[k].tok != Tok::Punct(';')
                    {
                        k += 1;
                    }
                    k
                };
                let subject_start =
                    (j..header_end).find(|&k| toks[k].tok.is_kw("for")).map(|k| k + 1).unwrap_or(j);
                let owner = (subject_start..header_end).find_map(|k| match &toks[k].tok {
                    Tok::Ident(name) if name != "mut" && name != "dyn" => Some(name.clone()),
                    Tok::RawIdent(name) => Some(name.clone()),
                    _ => None,
                });
                if header_end < n && toks[header_end].tok == Tok::Punct('{') {
                    let end = skip_group(toks, header_end);
                    impl_stack.push((end, owner));
                    i = header_end + 1;
                } else {
                    i = header_end + 1;
                }
            }
            Tok::Ident(w) if w == "fn" => {
                let Some(name) = toks.get(i + 1).and_then(|t| t.tok.ident()) else {
                    i += 1;
                    continue;
                };
                let name = name.to_string();
                let mut j = i + 2;
                if j < n && toks[j].tok == Tok::Punct('<') {
                    j = skip_group(toks, j);
                }
                if j < n && toks[j].tok == Tok::Punct('(') {
                    j = skip_group(toks, j);
                }
                // Return type: between `->` and the body/`;`/`where`.
                let mut returns_hash = false;
                if j + 1 < n && toks[j].tok == Tok::Punct('-') && toks[j + 1].tok == Tok::Punct('>')
                {
                    let ty_start = j + 2;
                    let mut k = ty_start;
                    let mut angle = 0i32;
                    while k < n {
                        match &toks[k].tok {
                            Tok::Punct('<') => angle += 1,
                            Tok::Punct('>') => angle -= 1,
                            Tok::Punct('{') | Tok::Punct(';') if angle <= 0 => break,
                            Tok::Ident(kw) if kw == "where" && angle <= 0 => break,
                            _ => {}
                        }
                        k += 1;
                    }
                    returns_hash = type_is_hash(&toks[ty_start..k]);
                    j = k;
                }
                // Skip a where clause.
                while j < n && toks[j].tok != Tok::Punct('{') && toks[j].tok != Tok::Punct(';') {
                    j += 1;
                }
                let body = if j < n && toks[j].tok == Tok::Punct('{') {
                    Some((j, skip_group(toks, j)))
                } else {
                    None
                };
                let id = g.fns.len();
                g.fns.push(FnInfo {
                    name,
                    owner: impl_stack.last().and_then(|(_, o)| o.clone()),
                    file: fi,
                    line,
                    body,
                    is_test: in_test,
                    returns_hash,
                });
                if let Some((start, end)) = body {
                    fn_stack.push((end, id));
                    i = start + 1;
                } else {
                    i = j + 1;
                }
            }
            Tok::Ident(w) if w == "enum" => {
                let Some(name) = toks.get(i + 1).and_then(|t| t.tok.ident()) else {
                    i += 1;
                    continue;
                };
                let name = name.to_string();
                let mut j = i + 2;
                if j < n && toks[j].tok == Tok::Punct('<') {
                    j = skip_group(toks, j);
                }
                if j < n && toks[j].tok == Tok::Punct('{') {
                    let end = skip_group(toks, j);
                    let variants = parse_variants(toks, j + 1, end.saturating_sub(1));
                    g.enums.push(EnumInfo { name, file: fi, line, variants });
                    i = end;
                } else {
                    i = j;
                }
            }
            Tok::Ident(w) if w == "struct" => {
                let owner =
                    toks.get(i + 1).and_then(|t| t.tok.ident()).unwrap_or_default().to_string();
                let mut j = i + 2;
                if j < n && toks[j].tok == Tok::Punct('<') {
                    j = skip_group(toks, j);
                }
                if j < n && toks[j].tok == Tok::Punct('{') {
                    let end = skip_group(toks, j);
                    collect_hash_fields(g, fi, toks, j + 1, end.saturating_sub(1), &owner);
                    i = end;
                } else {
                    i = j;
                }
            }
            Tok::Ident(w) if w == "const" || w == "static" => {
                if let Some(name) = toks.get(i + 1).and_then(|t| t.tok.ident()) {
                    // `const fn` — not a const item.
                    if name != "fn" {
                        g.consts.push(ConstInfo { name: name.to_string(), file: fi, line });
                    }
                }
                i += 1;
            }
            Tok::Ident(w) if w == "use" => {
                let mut j = i + 1;
                while j < n && toks[j].tok != Tok::Punct(';') {
                    j += 1;
                }
                parse_use(g, fi, &toks[i + 1..j.min(n)], &meta.crate_key);
                i = j + 1;
            }
            Tok::Ident(w) if w == "match" => {
                if let Some(site) = parse_match(toks, i, fi, in_test) {
                    g.matches.push(site);
                }
                i += 1;
            }
            Tok::Ident(_) | Tok::RawIdent(_) => {
                // Call-site detection, only inside a function body.
                if let Some(&(_, caller)) = fn_stack.last() {
                    if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('(')) {
                        let name = toks[i].tok.ident().unwrap_or_default().to_string();
                        if !KEYWORDS.contains(&name.as_str()) {
                            let qual = call_qual(toks, i);
                            g.calls.push(CallSite { caller, name, qual, line });
                        }
                    }
                }
                i += 1;
            }
            _ => i += 1,
        }
    }
}

/// Classify the qualifier of a call whose head identifier is at `i`.
fn call_qual(toks: &[Token], i: usize) -> CallQual {
    if i >= 1 && toks[i - 1].tok == Tok::Punct('.') {
        return CallQual::Method;
    }
    if i >= 3 && toks[i - 1].tok == Tok::Punct(':') && toks[i - 2].tok == Tok::Punct(':') {
        if let Some(q) = toks[i - 3].tok.ident() {
            return CallQual::Path(q.to_string());
        }
        // `<T as Trait>::f(…)` and friends: treat as free (unresolvable).
    }
    CallQual::Free
}

/// Variant names of an enum body spanning tokens `[start, end)` at
/// depth 1 (the body braces are excluded by the caller).
fn parse_variants(toks: &[Token], start: usize, end: usize) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = start;
    let mut at_variant_start = true;
    while i < end.min(toks.len()) {
        match &toks[i].tok {
            // Outer attribute on the variant.
            Tok::Punct('#') if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct('[')) => {
                i = skip_group(toks, i + 1);
            }
            Tok::Punct('(') | Tok::Punct('{') | Tok::Punct('[') => {
                i = skip_group(toks, i);
            }
            Tok::Punct(',') => {
                at_variant_start = true;
                i += 1;
            }
            t => {
                if at_variant_start {
                    if let Some(name) = t.ident() {
                        out.push(name.to_string());
                        at_variant_start = false;
                    }
                }
                i += 1;
            }
        }
    }
    out
}

/// Record hash-typed named fields of a struct body `[start, end)`.
fn collect_hash_fields(
    g: &mut Graph,
    fi: usize,
    toks: &[Token],
    start: usize,
    end: usize,
    owner: &str,
) {
    let mut i = start;
    while i + 2 < end.min(toks.len()) {
        // `name : TYPE` at depth 0 of the struct body; skip nested groups.
        match &toks[i].tok {
            Tok::Punct('(') | Tok::Punct('{') | Tok::Punct('[') | Tok::Punct('<') => {
                i = skip_group(toks, i);
                continue;
            }
            _ => {}
        }
        if let Some(name) = toks[i].tok.ident() {
            if toks[i + 1].tok == Tok::Punct(':') && toks[i + 2].tok != Tok::Punct(':') {
                let ty_start = i + 2;
                let ty_end = type_end(toks, ty_start);
                if type_is_hash(&toks[ty_start..ty_end]) {
                    g.hash_fields.push(HashField {
                        name: name.to_string(),
                        owner: owner.to_string(),
                        file: fi,
                        line: toks[i].line,
                    });
                }
                i = ty_end;
                continue;
            }
        }
        i += 1;
    }
}

/// Parse a `use` declaration body (tokens between `use` and `;`) into
/// `(file, name, crate)` import rows. Handles nested group lists and
/// `as` renames; glob imports are ignored (nothing to name).
fn parse_use(g: &mut Graph, fi: usize, toks: &[Token], current: &str) {
    let Some(root) = toks.first().and_then(|t| t.tok.ident()) else { return };
    let Some(krate) = root_to_crate(root, current) else { return };
    // Collect leaf names: an ident is a leaf when not followed by `::`;
    // `a as b` imports `b`.
    let mut i = 0usize;
    while i < toks.len() {
        let Some(w) = toks[i].tok.ident() else {
            i += 1;
            continue;
        };
        let followed_by_path = toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
            && toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct(':'));
        if w == "as" {
            i += 1;
            continue;
        }
        if !followed_by_path {
            // `x as y` — the preceding `as` means `w` is the rename; the
            // plain case imports `w` itself. Either way `w` is the local
            // name.
            let name = w.to_string();
            if name != "self" {
                g.imports.push((fi, name, krate.clone()));
            } else if let Some(prev) = (0..i).rev().find_map(|k| toks[k].tok.ident()) {
                // `use a::b::{self}` imports `b`.
                if prev != "as" {
                    g.imports.push((fi, prev.to_string(), krate.clone()));
                }
            }
        }
        i += 1;
    }
}

/// Parse the `match` whose keyword is at token `i`. Returns `None` when
/// the shape is not a match expression (e.g. macro fragment).
fn parse_match(toks: &[Token], i: usize, fi: usize, is_test: bool) -> Option<MatchSite> {
    let n = toks.len();
    // Scrutinee: to the first `{` at bracket depth 0.
    let mut j = i + 1;
    let mut depth = 0i32;
    while j < n {
        match toks[j].tok {
            Tok::Punct('(') | Tok::Punct('[') => depth += 1,
            Tok::Punct(')') | Tok::Punct(']') => depth -= 1,
            Tok::Punct('{') if depth == 0 => break,
            Tok::Punct(';') if depth == 0 => return None,
            _ => {}
        }
        j += 1;
    }
    if j >= n {
        return None;
    }
    let body_end = skip_group(toks, j) - 1; // index of the closing `}`
    let mut arms = Vec::new();
    let mut k = j + 1;
    while k < body_end {
        // Pattern: up to `=>` at depth 0 within the arm.
        let pat_start = k;
        let mut depth = 0i32;
        let mut arrow = None;
        while k < body_end {
            match toks[k].tok {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                Tok::Punct('=')
                    if depth == 0 && toks.get(k + 1).map(|t| &t.tok) == Some(&Tok::Punct('>')) =>
                {
                    arrow = Some(k);
                    break;
                }
                _ => {}
            }
            k += 1;
        }
        let Some(arrow) = arrow else { break };
        let pat = &toks[pat_start..arrow];
        let guard_at = pat.iter().position(|t| t.tok.is_kw("if"));
        let head = &pat[..guard_at.unwrap_or(pat.len())];
        let catch_all = head.len() == 1 && matches!(&head[0].tok, Tok::Ident(w) if w == "_")
            || (head.len() == 1
                && matches!(&head[0].tok, Tok::Ident(_))
                && guard_at.is_none()
                && {
                    // A bare binding is a catch-all too — but only when it is
                    // genuinely a lone lowercase identifier (an uppercase
                    // lone ident is a unit variant/const pattern).
                    let Tok::Ident(w) = &head[0].tok else { unreachable!() };
                    w.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
                });
        let mut pats = Vec::new();
        let mut p = 0usize;
        while p + 3 < pat.len() {
            if let (Some(a), Tok::Punct(':'), Tok::Punct(':'), Some(b)) =
                (pat[p].tok.ident(), &pat[p + 1].tok, &pat[p + 2].tok, pat[p + 3].tok.ident())
            {
                let more_path = pat.get(p + 4).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                    && pat.get(p + 5).map(|t| &t.tok) == Some(&Tok::Punct(':'));
                if !more_path {
                    pats.push((a.to_string(), b.to_string()));
                }
            }
            p += 1;
        }
        arms.push(MatchArm { line: toks[pat_start].line, pats, catch_all });
        // Arm value: a `{…}` block (optionally followed by `,`) or an
        // expression up to `,` at depth 0.
        k = arrow + 2;
        if k < body_end && toks[k].tok == Tok::Punct('{') {
            k = skip_group(toks, k);
            if k < body_end && toks[k].tok == Tok::Punct(',') {
                k += 1;
            }
        } else {
            let mut depth = 0i32;
            while k < body_end {
                match toks[k].tok {
                    Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                    Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => depth -= 1,
                    Tok::Punct(',') if depth == 0 => {
                        k += 1;
                        break;
                    }
                    _ => {}
                }
                k += 1;
            }
        }
    }
    Some(MatchSite { file: fi, line: toks[i].line, is_test, arms })
}

/// Phase-2 sweep: `Enum::Variant` and const references with their
/// enclosing functions.
#[allow(clippy::too_many_arguments)]
fn collect_refs(
    g: &Graph,
    fi: usize,
    lexed: &Lexed,
    enums: &BTreeMap<&str, &EnumInfo>,
    const_names: &[&str],
    vrefs: &mut Vec<VariantRef>,
    const_refs: &mut Vec<ConstRef>,
) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        let Some(w) = toks[i].tok.ident() else { continue };
        if let Some(e) = enums.get(w) {
            if toks.get(i + 1).map(|t| &t.tok) == Some(&Tok::Punct(':'))
                && toks.get(i + 2).map(|t| &t.tok) == Some(&Tok::Punct(':'))
            {
                if let Some(v) = toks.get(i + 3).and_then(|t| t.tok.ident()) {
                    if e.variants.iter().any(|x| x == v) {
                        vrefs.push(VariantRef {
                            enum_name: w.to_string(),
                            variant: v.to_string(),
                            file: fi,
                            line: toks[i].line,
                            in_fn: g.fn_at(fi, i),
                        });
                    }
                }
            }
        }
        if const_names.contains(&w) {
            // Skip the declaration itself (`const NAME`).
            let is_decl =
                i >= 1 && toks[i - 1].tok.ident().is_some_and(|p| p == "const" || p == "static");
            if !is_decl {
                const_refs.push(ConstRef {
                    name: w.to_string(),
                    file: fi,
                    line: toks[i].line,
                    in_fn: g.fn_at(fi, i),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn build(files: &[(&str, &str)]) -> Graph {
        let lexed: Vec<(String, Lexed)> =
            files.iter().map(|(rel, src)| (rel.to_string(), lex(src))).collect();
        Graph::build(&lexed)
    }

    #[test]
    fn functions_and_owners_are_discovered() {
        let g = build(&[(
            "crates/core/src/lib.rs",
            "pub fn free() {}\nstruct S;\nimpl S { fn method(&self) {} }\n\
             impl Display for S { fn fmt(&self) {} }",
        )]);
        let names: Vec<(String, Option<String>)> =
            g.fns.iter().map(|f| (f.name.clone(), f.owner.clone())).collect();
        assert_eq!(
            names,
            vec![
                ("free".to_string(), None),
                ("method".to_string(), Some("S".to_string())),
                ("fmt".to_string(), Some("S".to_string())),
            ]
        );
    }

    #[test]
    fn calls_are_attributed_and_resolved() {
        let g = build(&[
            ("crates/core/src/a.rs", "pub fn helper() {}"),
            (
                "crates/sim/src/b.rs",
                "use ocpt_core::helper;\nfn driver() { helper(); leaf(); }\nfn leaf() {}",
            ),
        ]);
        let driver = g.fns.iter().position(|f| f.name == "driver").expect("driver parsed");
        let calls: Vec<&CallSite> = g.calls.iter().filter(|c| c.caller == driver).collect();
        assert_eq!(calls.len(), 2);
        let helper_ids = g.resolve(calls[0]);
        assert_eq!(helper_ids.len(), 1);
        assert_eq!(g.fq_name(helper_ids[0]), "core::helper");
        let leaf_ids = g.resolve(calls[1]);
        assert_eq!(leaf_ids.len(), 1);
        assert_eq!(g.fq_name(leaf_ids[0]), "sim::leaf");
    }

    #[test]
    fn builtin_method_calls_do_not_link() {
        let g = build(&[(
            "crates/core/src/a.rs",
            "struct S;\nimpl S { fn get(&self) {} }\nfn f(m: &M) { m.get(1); m.custom(); }\nimpl S { fn custom(&self) {} }",
        )]);
        let f = g.fns.iter().position(|x| x.name == "f").expect("f parsed");
        let calls: Vec<&CallSite> = g.calls.iter().filter(|c| c.caller == f).collect();
        assert!(g.resolve(calls[0]).is_empty(), "builtin .get must not link");
        assert_eq!(g.resolve(calls[1]).len(), 1, ".custom links to the method");
    }

    #[test]
    fn enums_variants_and_matches_parse() {
        let src = "pub enum K { A, B(u32), C { x: u8 } }\n\
                   fn h(k: K) { match k { K::A => 1, K::B(v) => v, other => 0, } }";
        let g = build(&[("crates/core/src/k.rs", src)]);
        assert_eq!(g.enums.len(), 1);
        assert_eq!(g.enums[0].variants, vec!["A", "B", "C"]);
        assert_eq!(g.matches.len(), 1);
        let m = &g.matches[0];
        assert_eq!(m.arms.len(), 3);
        assert_eq!(m.arms[0].pats, vec![("K".to_string(), "A".to_string())]);
        assert!(m.arms[2].catch_all, "bare binding arm is a catch-all");
        assert!(!m.arms[0].catch_all);
    }

    #[test]
    fn expression_position_variant_refs_do_not_make_a_protocol_match() {
        // Arms whose *patterns* are numbers only reference variants in
        // expression position — decode-style matches over u8.
        let src = "pub enum K { A, B }\nfn dec(x: u8) -> K { match x { 0 => K::A, 1 => K::B, t => K::A, } }";
        let g = build(&[("crates/core/src/k.rs", src)]);
        let m = &g.matches[0];
        assert!(m.arms.iter().all(|a| a.pats.is_empty()));
        // … but the refs are still collected for codec reconciliation.
        assert_eq!(g.vrefs.iter().filter(|r| r.enum_name == "K").count(), 3);
    }

    #[test]
    fn raw_identifier_match_is_not_a_match_site() {
        let g = build(&[("crates/core/src/r.rs", "fn f() { let r#match = 1; let y = r#match; }")]);
        assert!(g.matches.is_empty(), "r#match must not open a match site");
    }

    #[test]
    fn return_type_hash_detection_sees_through_wrappers_not_containers() {
        let src = "fn a() -> HashMap<u32, u32> { x }\n\
                   fn b() -> Arc<HashMap<u32, u32>> { x }\n\
                   fn c() -> Vec<HashMap<u32, u32>> { x }\n\
                   fn d() -> BTreeMap<u32, u32> { x }";
        let g = build(&[("crates/core/src/t.rs", src)]);
        let by: BTreeMap<&str, bool> =
            g.fns.iter().map(|f| (f.name.as_str(), f.returns_hash)).collect();
        assert!(by["a"] && by["b"], "{by:?}");
        assert!(!by["c"] && !by["d"], "{by:?}");
    }

    #[test]
    fn hash_fields_collected_with_outer_type_precision() {
        let src = "struct S { live: HashSet<u64>, ordered: Vec<HashMap<u8, u8>>, shared: Arc<HashMap<u8, u8>> }";
        let g = build(&[("crates/sim/src/s.rs", src)]);
        let names: Vec<&str> = g.hash_fields.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["live", "shared"]);
    }

    #[test]
    fn consts_and_refs_are_linked_to_functions() {
        let src = "pub const TAG_A: u8 = 0;\nfn to_bytes() { emit(TAG_A); }\nfn from_wire() { read(TAG_A); }";
        let g = build(&[("crates/core/src/w.rs", src)]);
        assert_eq!(g.consts.len(), 1);
        assert_eq!(g.const_refs.len(), 2);
        let fns: Vec<Option<&str>> =
            g.const_refs.iter().map(|r| r.in_fn.map(|i| g.fns[i].name.as_str())).collect();
        assert_eq!(fns, vec![Some("to_bytes"), Some("from_wire")]);
    }

    #[test]
    fn test_code_marks_functions() {
        let src = "fn live() {}\n#[cfg(test)]\nmod t {\n    fn helper() {}\n}";
        let g = build(&[("crates/core/src/x.rs", src)]);
        let by: BTreeMap<&str, bool> = g.fns.iter().map(|f| (f.name.as_str(), f.is_test)).collect();
        assert!(!by["live"]);
        assert!(by["helper"]);
    }
}
