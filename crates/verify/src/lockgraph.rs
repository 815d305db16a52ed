//! Static lock-discipline analysis (`lockgraph`): the second half of the
//! `taurus-lint` toolbox.
//!
//! The pass scans workspace sources with the same comment/string-stripping
//! scanner as [`crate::lint`], then:
//!
//! 1. **Discovers lock classes.** Every `Mutex<...>` / `RwLock<...>` field
//!    or static gets a stable class name `crate::module::field` (e.g.
//!    `core::sal::state`). Locks nested inside containers (such as
//!    `RwLock<HashMap<_, Arc<Mutex<SliceReplica>>>>`) get a payload class
//!    named after the protected type, and functions returning a lock handle
//!    (`-> Arc<Mutex<SliceReplica>>`) tie call sites back to that class.
//! 2. **Extracts acquisition sites with guard scopes.** `let g = x.lock()`
//!    holds to the end of the enclosing block (or an early `drop(g)`);
//!    `if let Some(g) = x.try_lock()` holds for the `if` body; a guard used
//!    as a temporary (`x.lock().len()`) is held for the statement only.
//!    Closures run inline except `std::thread::spawn`, whose body is
//!    analyzed as a detached context (the spawned thread holds nothing).
//! 3. **Propagates held sets across calls, conservatively.** Call sites are
//!    resolved by receiver/qualifier (field-type map, `Type::fn`, `self.`)
//!    with a deny list for ubiquitous std method names, and each function's
//!    transitive acquisition set and RPC-reachability are computed to a
//!    fixpoint.
//! 4. **Emits rules:**
//!    * `lock-order-cycle` — a cycle in the cross-crate (held → acquired)
//!      class graph: two code paths acquire the same classes in opposite
//!      orders, which can deadlock under the right interleaving.
//!    * `lock-across-fabric-call` — a guard is live across a
//!      `Fabric::call`/`call_all` round trip (directly or via callees): a
//!      latency cliff on the hot path and a deadlock risk if the remote
//!      handler ever needs the same lock.
//!    * `condvar-foreign-mutex` — one `Condvar` waited on with more than
//!      one lock class; wakeups are only sound with a single paired mutex.
//!
//! Findings are ordinary [`Diagnostic`]s, suppressible with justified
//! `taurus-lint: allow(rule) -- reason` comments on the reported line. For
//! `lock-order-cycle` an allow on *any* edge of the cycle suppresses it
//! (the proof lives where the ordering is established).
//!
//! Known limitations (deliberate, text-level analysis): `match` scrutinee
//! guard lifetimes are treated as statement-scoped, trait-object dispatch
//! is resolved by method name, and the condvar wait window is not modeled
//! as a release point. The runtime witness (`shims/parking_lot` built with
//! `--cfg taurus_lock_witness`) covers the residual instance-level cases.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::{Path, PathBuf};

use crate::lint::{
    allow_directives, collect_rs_files, strip_comments_and_strings, test_code_lines, Diagnostic,
    LintReport,
};

/// Lock-class id: index into [`Analysis::classes`].
type ClassId = usize;
type FnId = usize;
type FileId = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockKind {
    Mutex,
    RwLock,
    Condvar,
}

#[derive(Debug, Clone)]
struct ClassDecl {
    /// Stable name, e.g. `core::sal::state`.
    name: String,
    kind: LockKind,
    file: FileId,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Site {
    file: FileId,
    line: usize,
}

#[derive(Debug, Clone)]
struct CallSite {
    name: String,
    /// Identifier immediately before `.name(` (method receiver), if any.
    recv: Option<String>,
    /// Identifier before `::name(` (type or module qualifier), if any.
    qualifier: Option<String>,
    site: Site,
    /// Lock classes held (guards + statement temporaries) at the call.
    held: Vec<ClassId>,
}

#[derive(Debug, Clone)]
struct Acquisition {
    class: ClassId,
    site: Site,
    /// Classes held when this acquisition happens (direct edges).
    held: Vec<ClassId>,
}

#[derive(Debug, Clone)]
struct CondvarWait {
    condvar: ClassId,
    mutex: ClassId,
    site: Site,
}

#[derive(Debug)]
struct FnInfo {
    name: String,
    file: FileId,
    /// Token range of the body in the file's token stream.
    body: (usize, usize),
    /// Detached contexts (e.g. `thread::spawn` closures) are analyzed but
    /// excluded from caller-held propagation and from the name index.
    detached: bool,
    acqs: Vec<Acquisition>,
    calls: Vec<CallSite>,
    waits: Vec<CondvarWait>,
}

struct SourceFile {
    path: PathBuf,
    crate_name: String,
    module: String,
    tokens: Vec<Token>,
    is_test: Vec<bool>,
    allows: BTreeMap<usize, Vec<String>>,
}

/// Full analysis result; [`Analysis::report`] carries the diagnostics and
/// the rest is exposed for tests and debugging output.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Sorted lock-class names discovered across the workspace.
    pub classes: Vec<String>,
    /// Deduplicated (held, acquired, "file:line") edges, sorted.
    pub edges: Vec<(String, String, String)>,
    /// Acquisition sites whose receiver could not be resolved to a class.
    pub unresolved_receivers: usize,
    pub report: LintReport,
}

// ====================================================================
// Tokenizer
// ====================================================================

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    P(char),
}

#[derive(Debug, Clone)]
struct Token {
    tok: Tok,
    /// 1-based source line.
    line: usize,
}

fn tokenize(stripped: &str) -> Vec<Token> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut chars = stripped.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c == '\n' {
            line += 1;
            chars.next();
        } else if c.is_whitespace() {
            chars.next();
        } else if c.is_alphanumeric() || c == '_' {
            let mut s = String::new();
            while let Some(&d) = chars.peek() {
                if d.is_alphanumeric() || d == '_' {
                    s.push(d);
                    chars.next();
                } else {
                    break;
                }
            }
            out.push(Token {
                tok: Tok::Ident(s),
                line,
            });
        } else {
            chars.next();
            out.push(Token {
                tok: Tok::P(c),
                line,
            });
        }
    }
    out
}

fn ident(t: &Token) -> Option<&str> {
    match &t.tok {
        Tok::Ident(s) => Some(s),
        Tok::P(_) => None,
    }
}

fn is_p(t: &Token, c: char) -> bool {
    t.tok == Tok::P(c)
}

// ====================================================================
// Name tables
// ====================================================================

/// Method names never resolved through a local variable or bare-name
/// fallback: they collide with std collection/iterator methods and would
/// wire the call graph to unrelated workspace functions.
const DENY_BARE: &[&str] = &[
    "new",
    "default",
    "clone",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "push_back",
    "pop",
    "len",
    "is_empty",
    "contains",
    "contains_key",
    "clear",
    "iter",
    "iter_mut",
    "keys",
    "values",
    "entry",
    "next",
    "last",
    "first",
    "min",
    "max",
    "sum",
    "take",
    "replace",
    "drain",
    "extend",
    "retain",
    "map",
    "filter",
    "find",
    "any",
    "all",
    "fold",
    "collect",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "rev",
    "count",
    "position",
    "chain",
    "zip",
    "cmp",
    "eq",
    "hash",
    "fmt",
    "from",
    "into",
    "try_into",
    "as_ref",
    "as_mut",
    "to_vec",
    "to_string",
    "join",
    "send",
    "recv",
    "load",
    "store",
    "swap",
    "fetch_add",
    "split",
    "starts_with",
    "ends_with",
    "trim",
    "parse",
    "abs",
    "saturating_sub",
    "saturating_add",
    "wrapping_add",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "and_then",
    "ok_or",
    "ok_or_else",
    "call",
    "spawn",
    "get_or_insert_with",
    "append",
    "truncate",
    "resize",
    "copied",
    "cloned",
    "flatten",
    "inc",
    "dec",
    "observe",
    "id",
    "name",
    "kind",
    "code",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
];

/// Statement/expression keywords that look like `ident (` but are not calls.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "move", "as", "in",
    "ref", "mut", "pub", "use", "mod", "impl", "struct", "enum", "trait", "where", "const",
    "static", "type", "dyn", "box", "break", "continue", "crate", "super", "Self", "self",
];

/// Container / wrapper type names skipped when inferring a field's semantic
/// type from its declaration.
const CONTAINER_TYPES: &[&str] = &[
    "Arc",
    "Rc",
    "Box",
    "Vec",
    "VecDeque",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "Option",
    "Result",
    "Mutex",
    "RwLock",
    "RefCell",
    "Cell",
    "Condvar",
    "String",
    "PathBuf",
    "Duration",
    "Instant",
    "AtomicU64",
    "AtomicUsize",
    "AtomicBool",
    "AtomicU32",
    "PhantomData",
    "Weak",
];

const ACQ_METHODS: &[&str] = &["lock", "try_lock", "read", "write", "try_read", "try_write"];
const WAIT_METHODS: &[&str] = &["wait", "wait_for", "wait_while", "wait_timeout"];

fn crate_and_module(path: &Path) -> (String, String) {
    let comps: Vec<String> = path
        .iter()
        .filter_map(|c| c.to_str())
        .map(|s| s.to_string())
        .collect();
    let mut crate_name = String::from("?");
    for w in comps.windows(2) {
        if w[0] == "crates" {
            crate_name = w[1].clone();
        }
    }
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("?")
        .to_string();
    let module = if stem == "mod" || stem == "lib" || stem == "main" {
        path.parent()
            .and_then(|p| p.file_name())
            .and_then(|s| s.to_str())
            .map(|s| s.to_string())
            .filter(|s| s != "src")
            .unwrap_or(stem)
    } else {
        stem
    };
    (crate_name, module)
}

// ====================================================================
// Workspace model construction
// ====================================================================

#[derive(Default)]
struct Workspace {
    files: Vec<SourceFile>,
    classes: Vec<ClassDecl>,
    /// (file, field name) -> class of a named lock field/static.
    field_class: HashMap<(FileId, String), ClassId>,
    /// field name -> classes across all files (for cross-file fallback).
    field_class_global: HashMap<String, Vec<ClassId>>,
    /// (file, payload type name) -> class for container-nested locks.
    payload_class: HashMap<(FileId, String), ClassId>,
    /// fn name -> payload class, for `-> ... Mutex<X> ...` lock handles.
    lockret_fn: HashMap<String, Vec<ClassId>>,
    /// field name -> semantic type names (for method receiver resolution).
    field_types: HashMap<String, BTreeSet<String>>,
    /// type name -> files declaring or impl-ing it.
    type_files: HashMap<String, BTreeSet<FileId>>,
    functions: Vec<FnInfo>,
    /// fn name -> non-detached FnIds.
    fn_by_name: HashMap<String, Vec<FnId>>,
    unresolved: usize,
}

impl Workspace {
    fn intern_class(&mut self, name: String, kind: LockKind, file: FileId) -> ClassId {
        if let Some(i) = self.classes.iter().position(|c| c.name == name) {
            return i;
        }
        self.classes.push(ClassDecl { name, kind, file });
        self.classes.len() - 1
    }

    fn add_file(&mut self, path: &Path, src: &str) -> FileId {
        let (crate_name, module) = crate_and_module(path);
        let stripped = strip_comments_and_strings(src);
        let is_test = test_code_lines(&stripped);
        let allows = allow_directives(src);
        let tokens = tokenize(&stripped);
        let id = self.files.len();
        self.scan_decl_lines(id, &crate_name, &module, &stripped, &is_test);
        self.files.push(SourceFile {
            path: path.to_path_buf(),
            crate_name,
            module,
            tokens,
            is_test,
            allows,
        });
        id
    }

    /// Line-based declaration scan: lock fields/statics, payload classes,
    /// and the field -> semantic-type map.
    fn scan_decl_lines(
        &mut self,
        file: FileId,
        crate_name: &str,
        module: &str,
        stripped: &str,
        is_test: &[bool],
    ) {
        for (idx, line) in stripped.lines().enumerate() {
            if is_test.get(idx).copied().unwrap_or(false) {
                continue;
            }
            let Some(colon) = line.find(':') else {
                continue;
            };
            // `::` is a path, not a declaration colon.
            if line.as_bytes().get(colon + 1) == Some(&b':')
                || (colon > 0 && line.as_bytes()[colon - 1] == b':')
            {
                continue;
            }
            let name = ident_before(line, colon);
            let Some(name) = name else { continue };
            let ty = &line[colon + 1..];
            // A declaration line, not a struct-literal field or a match arm:
            // require the type text to start the way types do.
            let tyt = ty.trim_start();
            if !tyt
                .chars()
                .next()
                .is_some_and(|c| c.is_uppercase() || c == '&' || c == '(' || c.is_lowercase())
            {
                continue;
            }
            let mut lock_hits: Vec<(usize, LockKind)> = Vec::new();
            for (pat, kind) in [("Mutex<", LockKind::Mutex), ("RwLock<", LockKind::RwLock)] {
                for (p, _) in ty.match_indices(pat) {
                    // Exclude `FairMutex<` style prefixes.
                    let ok = p == 0
                        || !ty[..p]
                            .chars()
                            .next_back()
                            .is_some_and(|c| c.is_alphanumeric() || c == '_');
                    if ok {
                        lock_hits.push((p, kind));
                    }
                }
            }
            lock_hits.sort_by_key(|(p, _)| *p);
            let is_condvar = ty.contains("Condvar");
            if lock_hits.is_empty() && !is_condvar {
                // Not a lock: record the semantic type for receiver typing.
                if let Some(t) = semantic_type(ty) {
                    self.field_types.entry(name).or_default().insert(t);
                }
                continue;
            }
            if is_condvar && lock_hits.is_empty() {
                let class = self.intern_class(
                    format!("{crate_name}::{module}::{name}"),
                    LockKind::Condvar,
                    file,
                );
                self.field_class
                    .entry((file, name.clone()))
                    .or_insert(class);
                self.field_class_global.entry(name).or_default().push(class);
                continue;
            }
            // First lock in the type is the field's own class.
            let (_, kind) = lock_hits[0];
            let class = self.intern_class(format!("{crate_name}::{module}::{name}"), kind, file);
            self.field_class
                .entry((file, name.clone()))
                .or_insert(class);
            self.field_class_global
                .entry(name.clone())
                .or_default()
                .push(class);
            // Locks nested deeper in containers become payload classes,
            // named after the protected type.
            for &(p, kind) in &lock_hits[1..] {
                let inner = &ty[p..];
                let Some(lt) = inner.find('<') else { continue };
                if let Some(payload) = first_ident(&inner[lt + 1..]) {
                    let class =
                        self.intern_class(format!("{crate_name}::{module}::{payload}"), kind, file);
                    self.payload_class.entry((file, payload)).or_insert(class);
                }
            }
        }
    }
}

/// The identifier ending right before byte `end` in `line`, if any.
fn ident_before(line: &str, end: usize) -> Option<String> {
    let bytes = line.as_bytes();
    let mut s = end;
    while s > 0 {
        let c = bytes[s - 1] as char;
        if c.is_alphanumeric() || c == '_' {
            s -= 1;
        } else {
            break;
        }
    }
    if s == end {
        return None;
    }
    let id = &line[s..end];
    if id.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        return None;
    }
    Some(id.to_string())
}

/// First identifier in `s` (e.g. the payload type of `Mutex<...`).
fn first_ident(s: &str) -> Option<String> {
    let start = s.find(|c: char| c.is_alphanumeric() || c == '_')?;
    let rest = &s[start..];
    let end = rest
        .find(|c: char| !c.is_alphanumeric() && c != '_')
        .unwrap_or(rest.len());
    Some(rest[..end].to_string())
}

/// First capitalized, non-container identifier in a type string.
fn semantic_type(ty: &str) -> Option<String> {
    let mut rest = ty;
    while let Some(start) = rest.find(|c: char| c.is_alphanumeric() || c == '_') {
        let tail = &rest[start..];
        let end = tail
            .find(|c: char| !c.is_alphanumeric() && c != '_')
            .unwrap_or(tail.len());
        let id = &tail[..end];
        if id.chars().next().is_some_and(|c| c.is_uppercase()) && !CONTAINER_TYPES.contains(&id) {
            return Some(id.to_string());
        }
        rest = &tail[end..];
    }
    None
}

// ====================================================================
// Function extraction and body analysis
// ====================================================================

impl Workspace {
    /// Finds `fn` items in a file's token stream: records name, body range,
    /// lock-returning signatures, and `struct`/`enum`/`impl` type homes.
    fn extract_items(&mut self, file: FileId) {
        let toks = std::mem::take(&mut self.files[file].tokens);
        let n = toks.len();
        let mut i = 0usize;
        while i < n {
            match ident(&toks[i]) {
                Some("struct") | Some("enum") | Some("trait") => {
                    if let Some(name) = toks.get(i + 1).and_then(ident) {
                        self.type_files
                            .entry(name.to_string())
                            .or_default()
                            .insert(file);
                    }
                    i += 1;
                }
                Some("impl") => {
                    // `impl<G> Type`, `impl Trait for Type` — the type is the
                    // last path segment before `for`-target or the block.
                    let mut j = i + 1;
                    if j < n && is_p(&toks[j], '<') {
                        j = skip_angle(&toks, j, n);
                    }
                    let mut last = None;
                    let mut target = None;
                    while j < n && !is_p(&toks[j], '{') && !is_p(&toks[j], ';') {
                        match ident(&toks[j]) {
                            Some("for") => {
                                target = None;
                            }
                            Some("where") => break,
                            Some(id) if id.chars().next().is_some_and(|c| c.is_uppercase()) => {
                                target = Some(id.to_string());
                            }
                            _ => {}
                        }
                        if target.is_some() {
                            last = target.clone();
                        }
                        j += 1;
                    }
                    if let Some(t) = last {
                        self.type_files.entry(t).or_default().insert(file);
                    }
                    i += 1;
                }
                Some("fn") => {
                    let Some(name) = toks.get(i + 1).and_then(ident) else {
                        i += 1;
                        continue;
                    };
                    let name = name.to_string();
                    let line = toks[i].line;
                    // Signature runs to the body `{` or a trait-decl `;`.
                    let mut j = i + 2;
                    let mut sig_end = None;
                    let mut pdepth = 0i64;
                    while j < n {
                        match &toks[j].tok {
                            Tok::P('(') | Tok::P('[') => pdepth += 1,
                            Tok::P(')') | Tok::P(']') => pdepth -= 1,
                            Tok::P('{') if pdepth == 0 => {
                                sig_end = Some(j);
                                break;
                            }
                            Tok::P(';') if pdepth == 0 => {
                                sig_end = Some(j);
                                break;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    let Some(open) = sig_end else { break };
                    // Lock-returning signature? Look for `-> .. Mutex|RwLock <
                    // Payload` between the param list and the body.
                    self.note_lockret(file, &name, &toks[i..open]);
                    if is_p(&toks[open], ';') {
                        i = open + 1;
                        continue;
                    }
                    let close = match_brace(&toks, open, n);
                    let is_test_fn = self.files[file]
                        .is_test
                        .get(line.saturating_sub(1))
                        .copied()
                        .unwrap_or(false);
                    if !is_test_fn {
                        self.functions.push(FnInfo {
                            name,
                            file,
                            body: (open + 1, close),
                            detached: false,
                            acqs: Vec::new(),
                            calls: Vec::new(),
                            waits: Vec::new(),
                        });
                    }
                    // Continue scanning *inside* the body too (nested items),
                    // so just step past the `fn` header.
                    i = open + 1;
                }
                _ => i += 1,
            }
        }
        self.files[file].tokens = toks;
    }

    fn note_lockret(&mut self, file: FileId, name: &str, sig: &[Token]) {
        let mut arrow = None;
        for (k, w) in sig.windows(2).enumerate() {
            if is_p(&w[0], '-') && is_p(&w[1], '>') {
                arrow = Some(k + 2);
                break;
            }
        }
        let Some(start) = arrow else { return };
        let mut k = start;
        while k + 1 < sig.len() {
            if let Some(id) = ident(&sig[k]) {
                if (id == "Mutex" || id == "RwLock") && is_p(&sig[k + 1], '<') {
                    if let Some(payload) = sig.get(k + 2).and_then(ident) {
                        let kind = if id == "Mutex" {
                            LockKind::Mutex
                        } else {
                            LockKind::RwLock
                        };
                        let (cn, md) = {
                            let f = &self.files[file];
                            (f.crate_name.clone(), f.module.clone())
                        };
                        let class = self.intern_class(format!("{cn}::{md}::{payload}"), kind, file);
                        self.payload_class
                            .entry((file, payload.to_string()))
                            .or_insert(class);
                        self.lockret_fn
                            .entry(name.to_string())
                            .or_default()
                            .push(class);
                    }
                }
            }
            k += 1;
        }
    }
}

fn match_brace(toks: &[Token], open: usize, n: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < n {
        match &toks[j].tok {
            Tok::P('{') => depth += 1,
            Tok::P('}') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    n.saturating_sub(1)
}

fn skip_angle(toks: &[Token], open: usize, n: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < n {
        match &toks[j].tok {
            Tok::P('<') => depth += 1,
            Tok::P('>') => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            Tok::P('{') | Tok::P(';') => return j,
            _ => {}
        }
        j += 1;
    }
    n
}

// ====================================================================
// Body scan: guard scopes, acquisitions, calls, waits
// ====================================================================

#[derive(Debug)]
struct Guard {
    var: Option<String>,
    class: ClassId,
    depth: usize,
}

#[derive(Default)]
struct ScanOut {
    acqs: Vec<Acquisition>,
    calls: Vec<CallSite>,
    waits: Vec<CondvarWait>,
    /// Token ranges of detached (`thread::spawn`) closures, analyzed later
    /// with an empty held context.
    spawned: Vec<(usize, usize, usize)>, // (start, end, line)
    unresolved: usize,
}

enum Recv {
    Class(ClassId),
    Unknown,
}

impl Workspace {
    /// Resolves the receiver of `.method()` ending at `dot` (exclusive).
    fn resolve_recv(
        &self,
        file: FileId,
        toks: &[Token],
        dot: usize,
        aliases: &HashMap<String, ClassId>,
    ) -> Recv {
        let mut j = dot; // index of the '.' token
                         // Skip `?` and chained `)` of a call: `self.replica(key)?.lock()`.
        loop {
            if j == 0 {
                return Recv::Unknown;
            }
            let prev = &toks[j - 1];
            if is_p(prev, '?') {
                j -= 1;
                continue;
            }
            if is_p(prev, ')') || is_p(prev, ']') {
                // Balanced skip backwards.
                let close = if is_p(prev, ')') { ')' } else { ']' };
                let open = if close == ')' { '(' } else { '[' };
                let mut depth = 0i64;
                let mut k = j - 1;
                loop {
                    if toks[k].tok == Tok::P(close) {
                        depth += 1;
                    } else if toks[k].tok == Tok::P(open) {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    if k == 0 {
                        return Recv::Unknown;
                    }
                    k -= 1;
                }
                if close == ')' {
                    // `f(...)` — a lock-handle-returning fn?
                    if k > 0 {
                        if let Some(fname) = ident(&toks[k - 1]) {
                            if let Some(classes) = self.lockret_fn.get(fname) {
                                return pick_class(classes, file, &self.classes);
                            }
                        }
                    }
                    return Recv::Unknown;
                }
                // `xs[i]` — resolve the indexed collection's name.
                j = k;
                continue;
            }
            if let Some(r) = ident(prev) {
                if r == "self" {
                    return Recv::Unknown;
                }
                if let Some(&c) = aliases.get(r) {
                    return Recv::Class(c);
                }
                if let Some(&c) = self.field_class.get(&(file, r.to_string())) {
                    return Recv::Class(c);
                }
                if let Some(cs) = self.field_class_global.get(r) {
                    let uniq: BTreeSet<ClassId> = cs.iter().copied().collect();
                    if uniq.len() == 1 {
                        if let Some(&c) = uniq.iter().next() {
                            return Recv::Class(c);
                        }
                    }
                }
                return Recv::Unknown;
            }
            return Recv::Unknown;
        }
    }

    #[allow(clippy::too_many_lines)]
    fn scan_body(&self, file: FileId, b0: usize, b1: usize) -> ScanOut {
        let toks = &self.files[file].tokens;
        let mut out = ScanOut::default();
        let mut guards: Vec<Guard> = Vec::new();
        let mut stmt_temp: Vec<ClassId> = Vec::new();
        let mut aliases: HashMap<String, ClassId> = HashMap::new();
        let mut depth = 1usize; // body top level
        let mut let_vars: Vec<String> = Vec::new();
        let mut let_active = false;
        let mut let_after_eq = false;
        let mut let_iflet = false;
        let mut let_consumed = false;
        let mut let_in_type = false;
        // Paren nesting within the current statement: an acquisition at
        // `pdepth > 0` sits in argument position (`f(&mut m.lock())`) — the
        // guard is a temporary dropped at the statement's semicolon, never
        // the value the surrounding `let` binds.
        let mut pdepth = 0i64;

        let held_now = |guards: &[Guard], stmt_temp: &[ClassId]| -> Vec<ClassId> {
            let mut v: Vec<ClassId> = guards.iter().map(|g| g.class).collect();
            v.extend_from_slice(stmt_temp);
            v.dedup();
            v
        };

        let mut i = b0;
        while i < b1 {
            match &toks[i].tok {
                Tok::P('{') => {
                    depth += 1;
                    stmt_temp.clear();
                    let_active = false;
                    pdepth = 0;
                    i += 1;
                }
                Tok::P('}') => {
                    guards.retain(|g| g.depth < depth);
                    depth = depth.saturating_sub(1);
                    stmt_temp.clear();
                    let_active = false;
                    pdepth = 0;
                    i += 1;
                }
                Tok::P(';') => {
                    stmt_temp.clear();
                    let_active = false;
                    pdepth = 0;
                    i += 1;
                }
                Tok::P('(') => {
                    pdepth += 1;
                    i += 1;
                }
                Tok::P(')') => {
                    pdepth = (pdepth - 1).max(0);
                    i += 1;
                }
                Tok::P('=') => {
                    if let_active
                        && !let_after_eq
                        && !toks.get(i + 1).is_some_and(|t| is_p(t, '='))
                        && !toks.get(i.wrapping_sub(1)).is_some_and(|t| {
                            is_p(t, '<') || is_p(t, '>') || is_p(t, '!') || is_p(t, '+')
                        })
                    {
                        let_after_eq = true;
                        let_in_type = false;
                    }
                    i += 1;
                }
                Tok::Ident(id) if id == "let" => {
                    let_active = true;
                    let_after_eq = false;
                    let_consumed = false;
                    let_in_type = false;
                    let_vars.clear();
                    let_iflet = i > b0
                        && toks
                            .get(i - 1)
                            .and_then(ident)
                            .is_some_and(|k| k == "if" || k == "while");
                    i += 1;
                }
                Tok::P(':') if let_active && !let_after_eq => {
                    // Type annotation: idents until `=` are not pattern vars.
                    if !toks.get(i + 1).is_some_and(|t| is_p(t, ':')) {
                        let_in_type = true;
                    } else {
                        // `::` path inside the pattern (e.g. `Foo::Bar(x)`).
                        i += 1;
                    }
                    i += 1;
                }
                Tok::Ident(id) if let_active && !let_after_eq => {
                    if !let_in_type
                        && !matches!(
                            id.as_str(),
                            "mut" | "ref" | "Some" | "None" | "Ok" | "Err" | "Box"
                        )
                        && id
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_lowercase() || c == '_')
                    {
                        let_vars.push(id.clone());
                    }
                    i += 1;
                }
                Tok::Ident(id) if id == "fn" => {
                    // Nested item: skip its header and body entirely (it is
                    // extracted as its own function).
                    let mut j = i + 1;
                    while j < b1 && !is_p(&toks[j], '{') && !is_p(&toks[j], ';') {
                        j += 1;
                    }
                    i = if j < b1 && is_p(&toks[j], '{') {
                        match_brace(toks, j, b1) + 1
                    } else {
                        j + 1
                    };
                }
                Tok::Ident(id) if id == "drop" && toks.get(i + 1).is_some_and(|t| is_p(t, '(')) => {
                    if let (Some(v), Some(close)) = (
                        toks.get(i + 2).and_then(ident),
                        toks.get(i + 3).map(|t| is_p(t, ')')),
                    ) {
                        if close {
                            if let Some(pos) =
                                guards.iter().rposition(|g| g.var.as_deref() == Some(v))
                            {
                                guards.remove(pos);
                            }
                            i += 4;
                            continue;
                        }
                    }
                    i += 1;
                }
                Tok::P('.')
                    if toks
                        .get(i + 1)
                        .and_then(ident)
                        .is_some_and(|m| ACQ_METHODS.contains(&m))
                        && toks.get(i + 2).is_some_and(|t| is_p(t, '(')) =>
                {
                    let method = ident(&toks[i + 1]).unwrap_or_default().to_string();
                    let close = match_paren(toks, i + 2, b1);
                    let chained = toks
                        .get(close + 1)
                        .is_some_and(|t| is_p(t, '.') || is_p(t, '?'));
                    let line = toks[i].line;
                    match self.resolve_recv(file, toks, i, &aliases) {
                        Recv::Class(c) => {
                            let kind = self.classes[c].kind;
                            let rw_method = method != "lock" && method != "try_lock";
                            let compatible = match kind {
                                LockKind::Mutex => !rw_method,
                                LockKind::RwLock => rw_method,
                                LockKind::Condvar => false,
                            };
                            if compatible {
                                let held = held_now(&guards, &stmt_temp);
                                out.acqs.push(Acquisition {
                                    class: c,
                                    site: Site { file, line },
                                    held,
                                });
                                if let_active
                                    && let_after_eq
                                    && !let_consumed
                                    && !chained
                                    && pdepth == 0
                                {
                                    let bind_depth = depth + usize::from(let_iflet);
                                    guards.push(Guard {
                                        var: let_vars.last().cloned(),
                                        class: c,
                                        depth: bind_depth,
                                    });
                                    let_consumed = true;
                                } else {
                                    stmt_temp.push(c);
                                }
                            }
                        }
                        Recv::Unknown => {
                            if method == "lock" || method == "try_lock" {
                                out.unresolved += 1;
                            }
                        }
                    }
                    i = close + 1;
                }
                Tok::P('.')
                    if toks
                        .get(i + 1)
                        .and_then(ident)
                        .is_some_and(|m| WAIT_METHODS.contains(&m))
                        && toks.get(i + 2).is_some_and(|t| is_p(t, '(')) =>
                {
                    let line = toks[i].line;
                    let cv = match self.resolve_recv(file, toks, i, &aliases) {
                        Recv::Class(c) if self.classes[c].kind == LockKind::Condvar => Some(c),
                        _ => None,
                    };
                    if let Some(cv) = cv {
                        // Expect `(&mut guard_var, ...)`.
                        let mut k = i + 3;
                        while k < b1 && (is_p(&toks[k], '&') || ident(&toks[k]) == Some("mut")) {
                            k += 1;
                        }
                        if let Some(v) = toks.get(k).and_then(ident) {
                            if let Some(g) =
                                guards.iter().rev().find(|g| g.var.as_deref() == Some(v))
                            {
                                out.waits.push(CondvarWait {
                                    condvar: cv,
                                    mutex: g.class,
                                    site: Site { file, line },
                                });
                            }
                        }
                    }
                    i += 2;
                }
                Tok::Ident(name) if toks.get(i + 1).is_some_and(|t| is_p(t, '(')) => {
                    let line = toks[i].line;
                    if KEYWORDS.contains(&name.as_str())
                        || name.chars().next().is_some_and(|c| c.is_ascii_digit())
                    {
                        i += 1;
                        continue;
                    }
                    let prev = i.checked_sub(1).map(|k| &toks[k]);
                    let (recv, qualifier) = match prev {
                        Some(t) if is_p(t, '.') => {
                            // A method call. If the receiver is not a plain
                            // ident (chained off a call result: `x.f().g()`)
                            // it must not fall into the bare-call path —
                            // mark it `<expr>`. If it names a live guard or
                            // a guard alias, the method dispatches to the
                            // lock's payload type (e.g. `map_guard.get(..)`),
                            // which this pass does not model — mark it
                            // `<guard>` so resolution skips it.
                            let r = i
                                .checked_sub(2)
                                .and_then(|k| toks.get(k))
                                .and_then(ident)
                                .map(|s| s.to_string());
                            let r = match r {
                                Some(v)
                                    if guards
                                        .iter()
                                        .any(|g| g.var.as_deref() == Some(v.as_str())) =>
                                {
                                    Some("<guard>".to_string())
                                }
                                Some(v) => Some(v),
                                None => Some("<expr>".to_string()),
                            };
                            (r, None)
                        }
                        Some(t) if is_p(t, ':') => {
                            let q = i
                                .checked_sub(3)
                                .and_then(|k| toks.get(k))
                                .and_then(ident)
                                .map(|s| s.to_string());
                            (None, q)
                        }
                        _ => (None, None),
                    };
                    // Detached context: `thread::spawn(closure)` and
                    // `fabric.spawn_detached(closure)` run with an empty held
                    // set on another thread (a pool worker for the latter).
                    if (name == "spawn" && qualifier.as_deref() == Some("thread"))
                        || name == "spawn_detached"
                    {
                        let close = match_paren(toks, i + 1, b1);
                        out.spawned.push((i + 2, close, line));
                        i = close + 1;
                        continue;
                    }
                    // A lock-returning call bound by `let` aliases the var to
                    // the lock's class: `let r = self.replica(key)?;`.
                    if let_active && let_after_eq && !let_consumed {
                        if let Some(classes) = self.lockret_fn.get(name.as_str()) {
                            if let (Some(var), Recv::Class(c)) = (
                                let_vars.last().cloned(),
                                pick_class(classes, file, &self.classes),
                            ) {
                                aliases.insert(var, c);
                                let_consumed = true;
                            }
                        }
                    }
                    let held = held_now(&guards, &stmt_temp);
                    out.calls.push(CallSite {
                        name: name.clone(),
                        recv,
                        qualifier,
                        site: Site { file, line },
                        held,
                    });
                    i += 1;
                }
                _ => {
                    i += 1;
                }
            }
        }
        out
    }
}

fn match_paren(toks: &[Token], open: usize, limit: usize) -> usize {
    let mut depth = 0i64;
    let mut j = open;
    while j < limit {
        match &toks[j].tok {
            Tok::P('(') => depth += 1,
            Tok::P(')') => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    limit.saturating_sub(1)
}

fn pick_class(classes: &[ClassId], file: FileId, decls: &[ClassDecl]) -> Recv {
    let uniq: BTreeSet<ClassId> = classes.iter().copied().collect();
    if uniq.len() == 1 {
        if let Some(&c) = uniq.iter().next() {
            return Recv::Class(c);
        }
    }
    if let Some(&c) = uniq.iter().find(|&&c| decls[c].file == file) {
        return Recv::Class(c);
    }
    Recv::Unknown
}

// ====================================================================
// Call resolution and fixpoint propagation
// ====================================================================

const RPC_NAMES: &[&str] = &["call", "call_all", "call_any", "call_grouped"];

impl Workspace {
    fn crate_files(&self, crate_name: &str) -> Vec<FileId> {
        (0..self.files.len())
            .filter(|&f| self.files[f].crate_name == crate_name)
            .collect()
    }

    fn fns_named_in(&self, name: &str, files: &BTreeSet<FileId>) -> Vec<FnId> {
        self.fn_by_name
            .get(name)
            .map(|ids| {
                ids.iter()
                    .copied()
                    .filter(|&id| files.contains(&self.functions[id].file))
                    .collect()
            })
            .unwrap_or_default()
    }

    fn resolve_call(&self, caller: &FnInfo, cs: &CallSite) -> Vec<FnId> {
        let global = || -> Vec<FnId> {
            if DENY_BARE.contains(&cs.name.as_str()) {
                Vec::new()
            } else {
                self.fn_by_name.get(&cs.name).cloned().unwrap_or_default()
            }
        };
        if let Some(q) = &cs.qualifier {
            if let Some(files) = self.type_files.get(q) {
                return self.fns_named_in(&cs.name, files);
            }
            return Vec::new();
        }
        if let Some(r) = &cs.recv {
            if r == "<guard>" {
                // Method on a lock guard: dispatches to the payload type
                // (HashMap, Vec, ...), not a workspace free function.
                return Vec::new();
            }
            if r == "<expr>" {
                // Method chained off an arbitrary expression: resolve only
                // through the deny-listed global namespace.
                return global();
            }
            if r == "self" {
                let crate_files: BTreeSet<FileId> = self
                    .crate_files(&self.files[caller.file].crate_name)
                    .into_iter()
                    .collect();
                return self.fns_named_in(&cs.name, &crate_files);
            }
            if let Some(types) = self.field_types.get(r) {
                let mut files: BTreeSet<FileId> = BTreeSet::new();
                for t in types {
                    if let Some(fs) = self.type_files.get(t) {
                        files.extend(fs.iter().copied());
                    }
                }
                let hits = self.fns_named_in(&cs.name, &files);
                if !hits.is_empty() {
                    return hits;
                }
            }
            return global();
        }
        // Bare call: same file first, then global.
        let same_file: BTreeSet<FileId> = [caller.file].into_iter().collect();
        let hits = self.fns_named_in(&cs.name, &same_file);
        if !hits.is_empty() {
            return hits;
        }
        global()
    }
}

fn site_key(ws: &Workspace, s: Site) -> (String, usize) {
    (ws.files[s.file].path.display().to_string(), s.line)
}

fn fmt_site(ws: &Workspace, s: Site) -> String {
    format!("{}:{}", ws.files[s.file].path.display(), s.line)
}

fn allows_rule(ws: &Workspace, s: Site, rule: &str) -> bool {
    ws.files[s.file]
        .allows
        .get(&s.line)
        .is_some_and(|rs| rs.iter().any(|r| r == rule))
}

/// Runs the full analysis over an already-populated workspace model.
fn run(mut ws: Workspace) -> Analysis {
    for f in 0..ws.files.len() {
        ws.extract_items(f);
    }
    // Analyze bodies; detached spawn contexts append to the list as we go.
    let mut fi = 0;
    while fi < ws.functions.len() {
        let (file, (b0, b1)) = (ws.functions[fi].file, ws.functions[fi].body);
        let scan = ws.scan_body(file, b0, b1);
        ws.unresolved += scan.unresolved;
        for (s, e, _line) in scan.spawned {
            let name = format!("{}::spawn", ws.functions[fi].name);
            ws.functions.push(FnInfo {
                name,
                file,
                body: (s, e),
                detached: true,
                acqs: Vec::new(),
                calls: Vec::new(),
                waits: Vec::new(),
            });
        }
        ws.functions[fi].acqs = scan.acqs;
        ws.functions[fi].calls = scan.calls;
        ws.functions[fi].waits = scan.waits;
        fi += 1;
    }
    for (id, f) in ws.functions.iter().enumerate() {
        if !f.detached {
            ws.fn_by_name.entry(f.name.clone()).or_default().push(id);
        }
    }

    let nfns = ws.functions.len();
    let resolved: Vec<Vec<Vec<FnId>>> = (0..nfns)
        .map(|f| {
            ws.functions[f]
                .calls
                .iter()
                .map(|cs| ws.resolve_call(&ws.functions[f], cs))
                .collect()
        })
        .collect();

    // Direct summaries.
    let mut acq_all: Vec<BTreeSet<ClassId>> = (0..nfns)
        .map(|f| ws.functions[f].acqs.iter().map(|a| a.class).collect())
        .collect();
    let mut rpc: Vec<bool> = (0..nfns)
        .map(|f| {
            let fabric_crate = ws.files[ws.functions[f].file].crate_name == "fabric";
            (fabric_crate && RPC_NAMES.contains(&ws.functions[f].name.as_str()))
                || ws.functions[f].calls.iter().any(|cs| {
                    RPC_NAMES.contains(&cs.name.as_str()) && cs.recv.as_deref() == Some("fabric")
                })
        })
        .collect();

    // Fixpoint: transitive acquisitions and RPC reachability.
    loop {
        let mut changed = false;
        for f in 0..nfns {
            for callees in &resolved[f] {
                for &c in callees {
                    if !rpc[f] && rpc[c] {
                        rpc[f] = true;
                        changed = true;
                    }
                    if !acq_all[c].is_subset(&acq_all[f]) {
                        let add: Vec<ClassId> =
                            acq_all[c].difference(&acq_all[f]).copied().collect();
                        acq_all[f].extend(add);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // ----------------------------------------------------------------
    // Edges: (held -> acquired), first site wins, deterministic order.
    // ----------------------------------------------------------------
    let mut edge_sites: BTreeMap<(ClassId, ClassId), Site> = BTreeMap::new();
    let note_edge = |edge_sites: &mut BTreeMap<(ClassId, ClassId), Site>,
                     from: ClassId,
                     to: ClassId,
                     site: Site,
                     ws: &Workspace| {
        if from == to {
            return;
        }
        match edge_sites.get(&(from, to)) {
            Some(prev) if site_key(ws, *prev) <= site_key(ws, site) => {}
            _ => {
                edge_sites.insert((from, to), site);
            }
        }
    };
    for (f, res_f) in resolved.iter().enumerate().take(nfns) {
        for a in &ws.functions[f].acqs {
            for &h in &a.held {
                note_edge(&mut edge_sites, h, a.class, a.site, &ws);
            }
        }
        for (ci, cs) in ws.functions[f].calls.iter().enumerate() {
            if cs.held.is_empty() {
                continue;
            }
            for &callee in &res_f[ci] {
                for &c in &acq_all[callee] {
                    for &h in &cs.held {
                        note_edge(&mut edge_sites, h, c, cs.site, &ws);
                    }
                }
            }
        }
    }

    let mut report = LintReport {
        files_scanned: ws.files.len(),
        ..Default::default()
    };
    let mut diags: Vec<Diagnostic> = Vec::new();

    // ----------------------------------------------------------------
    // Rule: lock-order-cycle (SCCs of the class graph).
    // ----------------------------------------------------------------
    let nclasses = ws.classes.len();
    let mut succ: Vec<Vec<ClassId>> = vec![Vec::new(); nclasses];
    for &(a, b) in edge_sites.keys() {
        succ[a].push(b);
    }
    for s in &mut succ {
        s.sort_by(|&x, &y| ws.classes[x].name.cmp(&ws.classes[y].name));
    }
    let sccs = tarjan_sccs(nclasses, &succ);
    let mut cycle_sccs: Vec<Vec<ClassId>> = sccs
        .into_iter()
        .filter(|scc| scc.len() > 1)
        .map(|mut scc| {
            scc.sort_by(|&x, &y| ws.classes[x].name.cmp(&ws.classes[y].name));
            scc
        })
        .collect();
    cycle_sccs.sort_by(|a, b| ws.classes[a[0]].name.cmp(&ws.classes[b[0]].name));
    for scc in cycle_sccs {
        let inset: BTreeSet<ClassId> = scc.iter().copied().collect();
        let path = cycle_path(scc[0], &inset, &succ);
        let mut desc = ws.classes[scc[0]].name.clone();
        let mut anchor: Option<Site> = None;
        let mut suppressed = false;
        for w in path.windows(2) {
            let site = edge_sites.get(&(w[0], w[1])).copied();
            if let Some(site) = site {
                if anchor.is_none() {
                    anchor = Some(site);
                }
                if allows_rule(&ws, site, "lock-order-cycle") {
                    suppressed = true;
                }
                desc.push_str(&format!(
                    " -> {} ({})",
                    ws.classes[w[1]].name,
                    fmt_site(&ws, site)
                ));
            }
        }
        let Some(anchor) = anchor else { continue };
        let d = Diagnostic {
            file: ws.files[anchor.file].path.clone(),
            line: anchor.line,
            rule: "lock-order-cycle",
            message: format!(
                "lock classes acquired in conflicting orders (possible deadlock): {desc}; \
                 establish one canonical order or justify with an allow on one edge"
            ),
        };
        if suppressed {
            report.suppressed += 1;
        } else {
            diags.push(d);
        }
    }

    // ----------------------------------------------------------------
    // Rule: lock-across-fabric-call.
    // ----------------------------------------------------------------
    let mut seen_fabric: BTreeSet<(String, usize)> = BTreeSet::new();
    for (f, res_f) in resolved.iter().enumerate().take(nfns) {
        for (ci, cs) in ws.functions[f].calls.iter().enumerate() {
            if cs.held.is_empty() {
                continue;
            }
            let direct =
                RPC_NAMES.contains(&cs.name.as_str()) && cs.recv.as_deref() == Some("fabric");
            let indirect = res_f[ci].iter().any(|&c| rpc[c]);
            if !(direct || indirect) {
                continue;
            }
            if !seen_fabric.insert(site_key(&ws, cs.site)) {
                continue;
            }
            let held_names: Vec<&str> = cs
                .held
                .iter()
                .map(|&h| ws.classes[h].name.as_str())
                .collect();
            let d = Diagnostic {
                file: ws.files[cs.site.file].path.clone(),
                line: cs.site.line,
                rule: "lock-across-fabric-call",
                message: format!(
                    "guard on [{}] held across a Fabric RPC via `{}`; drop the lock before \
                     the round trip or justify with an allow",
                    held_names.join(", "),
                    cs.name
                ),
            };
            if allows_rule(&ws, cs.site, "lock-across-fabric-call") {
                report.suppressed += 1;
            } else {
                diags.push(d);
            }
        }
    }

    // ----------------------------------------------------------------
    // Rule: condvar-foreign-mutex.
    // ----------------------------------------------------------------
    let mut cv_waits: BTreeMap<ClassId, Vec<&CondvarWait>> = BTreeMap::new();
    for f in &ws.functions {
        for w in &f.waits {
            cv_waits.entry(w.condvar).or_default().push(w);
        }
    }
    for (cv, mut waits) in cv_waits {
        let mutexes: BTreeSet<ClassId> = waits.iter().map(|w| w.mutex).collect();
        if mutexes.len() <= 1 {
            continue;
        }
        waits.sort_by_key(|w| site_key(&ws, w.site));
        let names: Vec<&str> = mutexes
            .iter()
            .map(|&m| ws.classes[m].name.as_str())
            .collect();
        let anchor = waits[0].site;
        let d = Diagnostic {
            file: ws.files[anchor.file].path.clone(),
            line: anchor.line,
            rule: "condvar-foreign-mutex",
            message: format!(
                "condvar `{}` is waited on with {} different lock classes [{}]; a condvar \
                 must pair with exactly one mutex",
                ws.classes[cv].name,
                mutexes.len(),
                names.join(", ")
            ),
        };
        if allows_rule(&ws, anchor, "condvar-foreign-mutex") {
            report.suppressed += 1;
        } else {
            diags.push(d);
        }
    }

    diags.sort_by(|a, b| (a.file.clone(), a.line, a.rule).cmp(&(b.file.clone(), b.line, b.rule)));
    report.diagnostics = diags;

    let mut classes: Vec<String> = ws.classes.iter().map(|c| c.name.clone()).collect();
    classes.sort();
    let mut edges: Vec<(String, String, String)> = edge_sites
        .iter()
        .map(|(&(a, b), &s)| {
            (
                ws.classes[a].name.clone(),
                ws.classes[b].name.clone(),
                fmt_site(&ws, s),
            )
        })
        .collect();
    edges.sort();
    Analysis {
        classes,
        edges,
        unresolved_receivers: ws.unresolved,
        report,
    }
}

/// Iterative Tarjan strongly-connected components.
fn tarjan_sccs(n: usize, succ: &[Vec<usize>]) -> Vec<Vec<usize>> {
    #[derive(Clone, Copy)]
    struct NodeState {
        index: usize,
        lowlink: usize,
        on_stack: bool,
        visited: bool,
    }
    let mut st = vec![
        NodeState {
            index: 0,
            lowlink: 0,
            on_stack: false,
            visited: false,
        };
        n
    ];
    let mut counter = 0usize;
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    // Explicit DFS stack: (node, next-successor-index).
    for root in 0..n {
        if st[root].visited {
            continue;
        }
        let mut dfs: Vec<(usize, usize)> = vec![(root, 0)];
        while let Some(&mut (v, ref mut si)) = dfs.last_mut() {
            if *si == 0 {
                st[v].visited = true;
                st[v].index = counter;
                st[v].lowlink = counter;
                counter += 1;
                st[v].on_stack = true;
                stack.push(v);
            }
            if *si < succ[v].len() {
                let w = succ[v][*si];
                *si += 1;
                if !st[w].visited {
                    dfs.push((w, 0));
                } else if st[w].on_stack {
                    st[v].lowlink = st[v].lowlink.min(st[w].index);
                }
            } else {
                dfs.pop();
                if let Some(&(parent, _)) = dfs.last() {
                    let low = st[v].lowlink;
                    st[parent].lowlink = st[parent].lowlink.min(low);
                }
                if st[v].lowlink == st[v].index {
                    let mut scc = Vec::new();
                    while let Some(w) = stack.pop() {
                        st[w].on_stack = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

/// A deterministic cycle through `start` within one SCC: BFS back to start
/// following name-sorted successors restricted to the SCC.
fn cycle_path(start: usize, scc: &BTreeSet<usize>, succ: &[Vec<usize>]) -> Vec<usize> {
    let mut prev: HashMap<usize, usize> = HashMap::new();
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    queue.push_back(start);
    let mut found = false;
    'bfs: while let Some(v) = queue.pop_front() {
        for &w in &succ[v] {
            if !scc.contains(&w) {
                continue;
            }
            if w == start {
                prev.insert(usize::MAX, v); // sentinel: last hop back to start
                found = true;
                break 'bfs;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(w) {
                e.insert(v);
                queue.push_back(w);
            }
        }
    }
    if !found {
        return vec![start];
    }
    let mut path = vec![start];
    let mut chain = Vec::new();
    let mut cur = prev[&usize::MAX];
    while cur != start {
        chain.push(cur);
        cur = prev[&cur];
    }
    chain.reverse();
    path.extend(chain);
    path.push(start);
    path
}

// ====================================================================
// Public API
// ====================================================================

/// Analyzes a set of in-memory sources (unit tests, fixtures).
pub fn analyze_sources(inputs: &[(PathBuf, String)]) -> Analysis {
    let mut ws = Workspace::default();
    for (path, src) in inputs {
        ws.add_file(path, src);
    }
    run(ws)
}

/// Analyzes every `crates/*/src/**/*.rs` file under `root` (the same file
/// set as [`crate::lint::lint_workspace`]).
pub fn analyze_workspace(root: &Path) -> std::io::Result<Analysis> {
    let mut ws = Workspace::default();
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();
    for crate_dir in crate_dirs {
        let src_dir = crate_dir.join("src");
        if !src_dir.is_dir() {
            continue;
        }
        for file in collect_rs_files(&src_dir)? {
            let src = std::fs::read_to_string(&file)?;
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            ws.add_file(&rel, &src);
        }
    }
    Ok(run(ws))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> Analysis {
        let v: Vec<(PathBuf, String)> = files
            .iter()
            .map(|(p, s)| (PathBuf::from(p), s.to_string()))
            .collect();
        analyze_sources(&v)
    }

    fn rules(a: &Analysis) -> Vec<&'static str> {
        a.report.diagnostics.iter().map(|d| d.rule).collect()
    }

    // ---- guard-scope extraction ----

    #[test]
    fn nested_guards_produce_an_ordered_edge() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
                 b: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn f(&self) {\n\
                     let _ga = self.a.lock();\n\
                     let _gb = self.b.lock();\n\
                 }\n\
             }\n",
        )]);
        assert!(
            a.report.diagnostics.is_empty(),
            "{:?}",
            a.report.diagnostics
        );
        assert_eq!(a.edges.len(), 1, "{:?}", a.edges);
        assert!(a.edges[0].0.ends_with("::a"), "{:?}", a.edges);
        assert!(a.edges[0].1.ends_with("::b"), "{:?}", a.edges);
    }

    #[test]
    fn early_drop_releases_the_guard() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
                 b: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn f(&self) {\n\
                     let g = self.a.lock();\n\
                     drop(g);\n\
                     let _h = self.b.lock();\n\
                 }\n\
             }\n",
        )]);
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }

    #[test]
    fn block_scope_releases_the_guard() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
                 b: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn f(&self) {\n\
                     { let _g = self.a.lock(); }\n\
                     let _h = self.b.lock();\n\
                 }\n\
             }\n",
        )]);
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }

    #[test]
    fn if_let_try_lock_scopes_the_guard_to_the_body() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
                 b: Mutex<u32>,\n\
                 c: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn f(&self) {\n\
                     if let Some(_g) = self.a.try_lock() {\n\
                         let _h = self.b.lock();\n\
                     }\n\
                     let _k = self.c.lock();\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(a.edges.len(), 1, "{:?}", a.edges);
        assert!(a.edges[0].0.ends_with("::a"), "{:?}", a.edges);
        assert!(a.edges[0].1.ends_with("::b"), "{:?}", a.edges);
    }

    #[test]
    fn argument_position_guard_is_a_statement_temporary() {
        // Regression: `helper(&mut self.a.lock())` must not bind the guard
        // to the surrounding `let`, and must not be live on the next line.
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn f(&self) {\n\
                     let _plan = helper(&mut self.a.lock());\n\
                     self.fabric.call();\n\
                 }\n\
             }\n\
             fn helper(_x: &mut u32) -> u32 { 0 }\n",
        )]);
        assert!(
            !rules(&a).contains(&"lock-across-fabric-call"),
            "{:?}",
            a.report.diagnostics
        );
    }

    #[test]
    fn guard_method_calls_do_not_resolve_to_free_functions() {
        // Regression: `g.fetch()` dispatches to the payload type, not to a
        // same-named workspace function that performs RPC.
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn f(&self) -> u32 {\n\
                     let g = self.a.lock();\n\
                     g.fetch()\n\
                 }\n\
                 fn fetch(&self) -> u32 {\n\
                     self.fabric.call();\n\
                     0\n\
                 }\n\
             }\n",
        )]);
        assert!(
            !rules(&a).contains(&"lock-across-fabric-call"),
            "{:?}",
            a.report.diagnostics
        );
    }

    // ---- cross-function propagation ----

    #[test]
    fn held_sets_propagate_across_calls() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
                 b: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn outer(&self) {\n\
                     let _g = self.a.lock();\n\
                     self.helper();\n\
                 }\n\
                 fn helper(&self) {\n\
                     let _h = self.b.lock();\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(a.edges.len(), 1, "{:?}", a.edges);
        assert!(a.edges[0].0.ends_with("::a"), "{:?}", a.edges);
        assert!(a.edges[0].1.ends_with("::b"), "{:?}", a.edges);
    }

    #[test]
    fn lock_across_fabric_call_fires() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn f(&self) {\n\
                     let _g = self.a.lock();\n\
                     self.fabric.call();\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(
            rules(&a),
            vec!["lock-across-fabric-call"],
            "{:?}",
            a.report.diagnostics
        );
    }

    #[test]
    fn lock_across_fabric_call_fires_transitively() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn f(&self) {\n\
                     let _g = self.a.lock();\n\
                     self.remote();\n\
                 }\n\
                 fn remote(&self) {\n\
                     self.fabric.call();\n\
                 }\n\
             }\n",
        )]);
        assert_eq!(
            rules(&a),
            vec!["lock-across-fabric-call"],
            "{:?}",
            a.report.diagnostics
        );
    }

    // ---- the deliberately-inverted fixture: the static rule must fire ----

    #[test]
    fn deliberate_inversion_reports_a_cycle() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
                 b: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn fwd(&self) {\n\
                     let _ga = self.a.lock();\n\
                     let _gb = self.b.lock();\n\
                 }\n\
                 fn rev(&self) {\n\
                     let _gb = self.b.lock();\n\
                     let _ga = self.a.lock();\n\
                 }\n\
             }\n",
        )]);
        let cycles: Vec<_> = a
            .report
            .diagnostics
            .iter()
            .filter(|d| d.rule == "lock-order-cycle")
            .collect();
        assert_eq!(cycles.len(), 1, "{:?}", a.report.diagnostics);
        // Both acquisition chains appear in the message.
        assert!(cycles[0].message.contains("::a"), "{}", cycles[0].message);
        assert!(cycles[0].message.contains("::b"), "{}", cycles[0].message);
    }

    #[test]
    fn inversion_across_functions_is_detected() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
                 b: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn fwd(&self) {\n\
                     let _ga = self.a.lock();\n\
                     self.take_b();\n\
                 }\n\
                 fn take_b(&self) {\n\
                     let _gb = self.b.lock();\n\
                 }\n\
                 fn rev(&self) {\n\
                     let _gb = self.b.lock();\n\
                     self.take_a();\n\
                 }\n\
                 fn take_a(&self) {\n\
                     let _ga = self.a.lock();\n\
                 }\n\
             }\n",
        )]);
        assert!(
            rules(&a).contains(&"lock-order-cycle"),
            "{:?}",
            a.report.diagnostics
        );
    }

    #[test]
    fn allow_on_one_edge_suppresses_the_cycle() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
                 b: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn fwd(&self) {\n\
                     let _ga = self.a.lock();\n\
                     let _gb = self.b.lock();\n\
                 }\n\
                 fn rev(&self) {\n\
                     let _gb = self.b.lock();\n\
                     // taurus-lint: allow(lock-order-cycle) -- test fixture\n\
                     let _ga = self.a.lock();\n\
                 }\n\
             }\n",
        )]);
        assert!(
            !rules(&a).contains(&"lock-order-cycle"),
            "{:?}",
            a.report.diagnostics
        );
        assert!(a.report.suppressed > 0);
    }

    // ---- condvar discipline ----

    #[test]
    fn condvar_waited_with_two_mutexes_is_reported() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 cv: Condvar,\n\
                 m1: Mutex<u32>,\n\
                 m2: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn w1(&self) {\n\
                     let mut g = self.m1.lock();\n\
                     self.cv.wait(&mut g);\n\
                 }\n\
                 fn w2(&self) {\n\
                     let mut g = self.m2.lock();\n\
                     self.cv.wait(&mut g);\n\
                 }\n\
             }\n",
        )]);
        assert!(
            rules(&a).contains(&"condvar-foreign-mutex"),
            "{:?}",
            a.report.diagnostics
        );
    }

    #[test]
    fn condvar_with_one_mutex_is_clean() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 cv: Condvar,\n\
                 m1: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn w1(&self) {\n\
                     let mut g = self.m1.lock();\n\
                     self.cv.wait(&mut g);\n\
                 }\n\
                 fn w2(&self) {\n\
                     let mut g = self.m1.lock();\n\
                     self.cv.wait(&mut g);\n\
                 }\n\
             }\n",
        )]);
        assert!(
            a.report.diagnostics.is_empty(),
            "{:?}",
            a.report.diagnostics
        );
    }

    // ---- determinism ----

    #[test]
    fn report_is_deterministic_across_file_order() {
        let f1 = (
            "crates/demo/src/p.rs",
            "struct P {\n\
                 a: Mutex<u32>,\n\
                 b: Mutex<u32>,\n\
             }\n\
             impl P {\n\
                 fn fwd(&self) { let _x = self.a.lock(); let _y = self.b.lock(); }\n\
                 fn rev(&self) { let _y = self.b.lock(); let _x = self.a.lock(); }\n\
             }\n",
        );
        let f2 = (
            "crates/demo/src/q.rs",
            "struct Q {\n\
                 c: Mutex<u32>,\n\
             }\n\
             impl Q {\n\
                 fn f(&self) { let _g = self.c.lock(); self.fabric.call(); }\n\
             }\n",
        );
        let fwd = analyze(&[f1, f2]);
        let rev = analyze(&[f2, f1]);
        let fmt = |a: &Analysis| -> Vec<String> {
            a.report.diagnostics.iter().map(|d| d.to_string()).collect()
        };
        assert_eq!(fmt(&fwd), fmt(&rev));
        assert_eq!(fwd.edges, rev.edges);
        assert!(!fmt(&fwd).is_empty());
    }

    #[test]
    fn spawned_closures_run_with_an_empty_held_set() {
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
                 b: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn f(&self) {\n\
                     let _g = self.a.lock();\n\
                     std::thread::spawn(move || {\n\
                         let _h = self.b.lock();\n\
                     });\n\
                 }\n\
             }\n",
        )]);
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }

    #[test]
    fn dispatcher_detached_jobs_are_detached_contexts() {
        // A `spawn_detached` closure runs on a dispatcher pool worker with
        // nothing held — locks taken inside it must not inherit the
        // submitter's held set (that would fabricate a::b edges).
        let a = analyze(&[(
            "crates/demo/src/m.rs",
            "struct S {\n\
                 a: Mutex<u32>,\n\
                 b: Mutex<u32>,\n\
             }\n\
             impl S {\n\
                 fn f(&self) {\n\
                     let _g = self.a.lock();\n\
                     self.fabric.spawn_detached(move || {\n\
                         let _h = self.b.lock();\n\
                     });\n\
                 }\n\
             }\n",
        )]);
        assert!(a.edges.is_empty(), "{:?}", a.edges);
    }

    #[test]
    fn grouped_calls_count_as_rpcs() {
        // Holding a lock across a grouped envelope is the same bug as
        // holding it across `fabric.call` — the submit blocks until remote
        // work completes.
        let a = analyze(&[(
            "crates/demo/src/q.rs",
            "struct Q {\n\
                 c: Mutex<u32>,\n\
             }\n\
             impl Q {\n\
                 fn f(&self) { let _g = self.c.lock(); self.fabric.call_grouped(x); }\n\
             }\n",
        )]);
        assert!(
            a.report
                .diagnostics
                .iter()
                .any(|d| d.to_string().contains("fabric")),
            "expected a lock-across-fabric diagnostic, got {:?}",
            a.report.diagnostics
        );
    }
}
