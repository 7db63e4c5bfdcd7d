//! Phase 1 of the workspace-aware analysis: a lightweight module /
//! `use`-resolution index built over every lintable file before any rule
//! runs.
//!
//! Three things live here, all consumed by the phase-2 rules:
//!
//! * **import maps** — per file, every `use` declaration parsed into
//!   `local name → full path segments` (groups, `as`-aliases and nested
//!   trees included), so a rule can ask what `channel` *means* in this
//!   file instead of pattern-matching on the bare word;
//! * **pub items** — every `fn` item with its canonical module path
//!   (derived from the file's position in the workspace, e.g.
//!   `crates/exec/src/lib.rs::run_indexed` →
//!   `empower_exec::run_indexed`) and body line span;
//! * **sanctioned idioms** — items marked in-code with
//!   `// empower-lint: sanction(D007, D008) — <why>`: the concurrency
//!   rules exempt the marked item's span and name the item in their
//!   diagnostics, so the sanctioned alternative is discovered by
//!   resolution, never by a hard-coded filename.
//!
//! The index also carries the ambient-config registry
//! (`crates/lint/env_registry.toml`) that rule D011 checks `EMPOWER_*`
//! env reads against.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Lexed, TokKind};
use crate::rules::{parse_rule_list_and_reason, FileContext, Rule, Violation};

/// Rules that may be sanctioned on an item. Only the concurrency rules
/// have a "one blessed implementation" shape; the determinism rules
/// D001–D006 take per-site `allow(..)` pragmas instead.
pub const SANCTIONABLE: [Rule; 4] = [Rule::D007, Rule::D008, Rule::D009, Rule::D010];

/// One `fn` item discovered in phase 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PubItem {
    /// The item's own name, e.g. `run_indexed`.
    pub name: String,
    /// Canonical `::`-joined path, e.g. `empower_exec::run_indexed`.
    pub path: String,
    /// Repo-relative file the item lives in.
    pub file: String,
    /// 1-based line of the `fn` token.
    pub line: u32,
    /// Last line of the item (closing brace or `;`).
    pub end_line: u32,
    /// Whether the item is `pub` (any visibility restriction counts).
    pub is_pub: bool,
}

/// A sanctioned idiom: an item the concurrency rules treat as the one
/// blessed implementation of an otherwise-forbidden pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sanction {
    /// The rules this item is exempt from (and advertised for).
    pub rules: Vec<Rule>,
    /// Repo-relative file of the item.
    pub file: String,
    /// Canonical path of the item, e.g. `empower_exec::run_indexed`.
    pub item: String,
    /// Inclusive line span the sanction covers: pragma line through the
    /// item's closing brace.
    pub span: (u32, u32),
    /// The mandatory justification text.
    pub reason: String,
}

/// The phase-1 output: what every phase-2 rule may consult.
#[derive(Debug, Default)]
pub struct WorkspaceIndex {
    items: Vec<PubItem>,
    sanctions: Vec<Sanction>,
    env_registry: BTreeSet<String>,
}

impl WorkspaceIndex {
    /// Indexes one file: collects its `fn` items and sanction pragmas.
    /// Returns the P001 violations for malformed sanction pragmas (the
    /// caller merges them into the report).
    pub fn add_file(&mut self, ctx: &FileContext, src: &str) -> Vec<Violation> {
        let lexed = lex(src);
        let module = module_path(ctx);
        let items = collect_fn_items(&lexed, ctx, &module);
        let mut out = Vec::new();
        self.collect_sanctions(ctx, &lexed, &items, &mut out);
        self.items.extend(items);
        out
    }

    /// Installs the `EMPOWER_*` ambient-config registry D011 checks
    /// against.
    pub fn set_env_registry(&mut self, names: impl IntoIterator<Item = String>) {
        self.env_registry = names.into_iter().collect();
    }

    /// True if `name` is a registered ambient-config knob.
    pub fn env_registered(&self, name: &str) -> bool {
        self.env_registry.contains(name)
    }

    /// True when a sanction for `rule` covers `line` of `file`.
    pub fn sanction_covers(&self, file: &str, rule: Rule, line: u32) -> bool {
        self.sanctions.iter().any(|s| {
            s.file == file && s.rules.contains(&rule) && s.span.0 <= line && line <= s.span.1
        })
    }

    /// The first sanctioned item for `rule` (path order): what diagnostics
    /// point at as the blessed alternative.
    pub fn sanctioned_idiom(&self, rule: Rule) -> Option<&Sanction> {
        self.sanctions.iter().filter(|s| s.rules.contains(&rule)).min_by_key(|s| &s.item)
    }

    /// All sanctions, for docs/tests.
    pub fn sanctions(&self) -> &[Sanction] {
        &self.sanctions
    }

    /// All indexed `fn` items, for docs/tests.
    pub fn pub_items(&self) -> &[PubItem] {
        &self.items
    }

    fn collect_sanctions(
        &mut self,
        ctx: &FileContext,
        lexed: &Lexed,
        items: &[PubItem],
        out: &mut Vec<Violation>,
    ) {
        for c in &lexed.comments {
            let Some(rest) = crate::rules::pragma_body(&c.text) else { continue };
            let Some(body) = rest.trim_start().strip_prefix("sanction") else { continue };
            let mut bad = |msg: String| {
                out.push(Violation {
                    rule: Rule::P001,
                    file: ctx.path.clone(),
                    line: c.line,
                    message: msg,
                });
            };
            let parsed = match parse_rule_list_and_reason(body) {
                Ok(p) => p,
                Err(msgs) => {
                    for m in msgs {
                        bad(m);
                    }
                    continue;
                }
            };
            if let Some(r) = parsed.rules.iter().find(|r| !SANCTIONABLE.contains(r)) {
                bad(format!(
                    "rule {r} cannot be sanctioned — only the concurrency rules \
                     (D007–D010) have sanctioned idioms; use `allow({r})` at the site"
                ));
                continue;
            }
            // The pragma block (contiguous comment lines) must directly
            // precede the item it blesses; a couple of attribute lines in
            // between are tolerated.
            let block_end = comment_block_end(lexed, c.line);
            let Some(item) = items
                .iter()
                .filter(|i| i.line > c.line && i.line <= block_end + 3)
                .min_by_key(|i| i.line)
            else {
                bad("sanction pragma does not precede a function item".to_string());
                continue;
            };
            self.sanctions.push(Sanction {
                rules: parsed.rules,
                file: ctx.path.clone(),
                item: item.path.clone(),
                span: (c.line, item.end_line),
                reason: parsed.reason,
            });
        }
    }
}

/// The last line of the contiguous comment block containing `line`.
pub(crate) fn comment_block_end(lexed: &Lexed, line: u32) -> u32 {
    let mut end = line;
    while lexed.comments.iter().any(|c| c.line == end + 1) {
        end += 1;
    }
    end
}

/// Canonical module path of a file: `crates/bench/src/sweep.rs` →
/// `["empower_bench", "sweep"]`. Crate roots (`lib.rs`, `main.rs`,
/// `src/bin/*.rs`) and `mod.rs` fold into their parent.
pub(crate) fn module_path(ctx: &FileContext) -> Vec<String> {
    let mut segs = vec![ctx.crate_name.replace('-', "_")];
    if let Some(pos) = ctx.path.find("src/") {
        let tail = &ctx.path[pos + 4..];
        let tail = tail.strip_suffix(".rs").unwrap_or(tail);
        for part in tail.split('/') {
            match part {
                "lib" | "main" | "mod" | "bin" | "" => {}
                p => segs.push(p.to_string()),
            }
        }
    }
    segs
}

/// Collects every `fn` item with its canonical path and body span.
fn collect_fn_items(lexed: &Lexed, ctx: &FileContext, module: &[String]) -> Vec<PubItem> {
    let mut out = Vec::new();
    let toks = &lexed.tokens;
    for (i, tok) in toks.iter().enumerate() {
        if lexed.ident(i) != Some("fn") {
            continue;
        }
        let Some(name) = lexed.ident(i + 1) else { continue };
        // Visibility: `pub fn`, `pub(crate) fn`, `pub(in …) fn`.
        let is_pub = lexed.ident(i.wrapping_sub(1)) == Some("pub")
            || (lexed.punct(i.wrapping_sub(1), ')')
                && (0..i).rev().take(6).any(|j| lexed.ident(j) == Some("pub")));
        let end_line = item_end_line(lexed, i);
        let mut path = module.to_vec();
        path.push(name.to_string());
        out.push(PubItem {
            name: name.to_string(),
            path: path.join("::"),
            file: ctx.path.clone(),
            line: tok.line,
            end_line,
            is_pub,
        });
    }
    out
}

/// Line of the end of the item whose `fn` token sits at `i`: the matching
/// close of the first body `{`, or the `;` of a bodyless signature.
fn item_end_line(lexed: &Lexed, i: usize) -> u32 {
    let toks = &lexed.tokens;
    let mut depth = 0usize;
    let mut j = i;
    while j < toks.len() {
        match &toks[j].kind {
            TokKind::Punct(';') if depth == 0 => return toks[j].line,
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    return toks[j].line;
                }
            }
            _ => {}
        }
        j += 1;
    }
    toks.get(i).map(|t| t.line).unwrap_or(1)
}

/// Parses every `use` declaration of a file into `local name → full path
/// segments`. Groups (`{a, b}`), `as` aliases and `self` leaves resolve;
/// globs are unresolvable and ignored.
pub(crate) fn collect_imports(lexed: &Lexed) -> BTreeMap<String, Vec<String>> {
    let mut map = BTreeMap::new();
    let mut i = 0usize;
    while i < lexed.tokens.len() {
        if lexed.ident(i) == Some("use") {
            i = use_tree(lexed, i + 1, &[], &mut map);
        }
        i += 1;
    }
    map
}

/// Parses one use-tree starting at token `i` with `prefix` already
/// collected; records leaves into `map`; returns the index of the
/// terminating token (`,`, `}`, `;`, or end).
fn use_tree(
    lexed: &Lexed,
    mut i: usize,
    prefix: &[String],
    map: &mut BTreeMap<String, Vec<String>>,
) -> usize {
    let mut path: Vec<String> = prefix.to_vec();
    let mut leafless = false; // alias recorded, group parsed, or glob
    loop {
        match lexed.tokens.get(i).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) if s == "as" => {
                if let Some(alias) = lexed.ident(i + 1) {
                    if alias != "_" {
                        map.insert(alias.to_string(), path.clone());
                    }
                    i += 2;
                } else {
                    i += 1;
                }
                leafless = true;
            }
            Some(TokKind::Ident(seg)) => {
                path.push(seg.clone());
                i += 1;
            }
            Some(TokKind::Punct(':')) => i += 1,
            Some(TokKind::Punct('*')) => {
                leafless = true;
                i += 1;
            }
            Some(TokKind::Punct('{')) => {
                i += 1;
                loop {
                    match lexed.tokens.get(i).map(|t| &t.kind) {
                        Some(TokKind::Punct('}')) => {
                            i += 1;
                            break;
                        }
                        Some(TokKind::Punct(',')) => i += 1,
                        Some(_) => i = use_tree(lexed, i, &path, map),
                        None => return i,
                    }
                }
                leafless = true;
            }
            Some(TokKind::Punct(';' | ',' | '}')) | None => {
                if !leafless && path.len() > prefix.len() {
                    let mut full = path.clone();
                    // `use std::sync::{self, Mutex}`: `self` names the
                    // parent module.
                    if full.last().map(String::as_str) == Some("self") {
                        full.pop();
                    }
                    if let Some(name) = full.last().cloned() {
                        map.insert(name, full);
                    }
                }
                return i;
            }
            Some(_) => i += 1,
        }
    }
}

/// The `::`-joined path whose final segment is the ident at token `i`,
/// walking back across `seg::seg::…`. Returns `(head_token_index, segments)`.
pub(crate) fn path_ending_at(lexed: &Lexed, i: usize) -> (usize, Vec<String>) {
    let mut segs = vec![lexed.ident(i).unwrap_or_default().to_string()];
    let mut j = i;
    while j >= 3 && lexed.punct(j - 1, ':') && lexed.punct(j - 2, ':') {
        match lexed.ident(j - 3) {
            Some(prev) => {
                segs.insert(0, prev.to_string());
                j -= 3;
            }
            None => break,
        }
    }
    (j, segs)
}

/// Expands the head of `segs` through the file's import map (and `crate`
/// to the owning crate), yielding the canonical absolute path — e.g. with
/// `use std::sync::mpsc;` in scope, `["mpsc", "channel"]` canonicalizes to
/// `["std", "sync", "mpsc", "channel"]`.
pub(crate) fn canonicalize(
    imports: &BTreeMap<String, Vec<String>>,
    ctx: &FileContext,
    segs: &[String],
) -> Vec<String> {
    let Some(head) = segs.first() else { return Vec::new() };
    if let Some(full) = imports.get(head) {
        full.iter().chain(segs.iter().skip(1)).cloned().collect()
    } else if head == "crate" {
        std::iter::once(ctx.crate_name.replace('-', "_"))
            .chain(segs.iter().skip(1).cloned())
            .collect()
    } else {
        segs.to_vec()
    }
}

/// One ambient-config read: a resolved `std::env::var` / `var_os` call.
/// `name` is `Some` when the argument is a string literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvReadSite {
    pub line: u32,
    pub name: Option<String>,
}

/// Every `std::env::var` / `var_os` call in `lexed`, resolved through the
/// file's imports (so `use std::env; env::var(..)`, a bare imported `var`,
/// and the fully qualified form all count; method calls `.var(..)` do not).
pub(crate) fn env_reads(
    lexed: &Lexed,
    imports: &BTreeMap<String, Vec<String>>,
    ctx: &FileContext,
) -> Vec<EnvReadSite> {
    let mut out = Vec::new();
    for i in 0..lexed.tokens.len() {
        let Some(id) = lexed.ident(i) else { continue };
        if id != "var" && id != "var_os" {
            continue;
        }
        if !lexed.punct(i + 1, '(') || (i > 0 && lexed.punct(i - 1, '.')) {
            continue;
        }
        let (_, segs) = path_ending_at(lexed, i);
        let canon = canonicalize(imports, ctx, &segs);
        let is_env = canon.len() >= 2
            && canon[canon.len() - 2] == "env"
            && (canon.len() == 2 || canon[0] == "std");
        if !is_env {
            continue;
        }
        out.push(EnvReadSite {
            line: lexed.tokens[i].line,
            name: lexed.str_lit(i + 2).map(String::from),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(path: &str, krate: &str) -> FileContext {
        FileContext {
            path: path.to_string(),
            crate_name: krate.to_string(),
            is_crate_root: false,
            is_bin: false,
            is_scaffold: false,
        }
    }

    #[test]
    fn module_paths_fold_roots_and_nest() {
        assert_eq!(
            module_path(&ctx("crates/bench/src/sweep.rs", "empower-bench")),
            vec!["empower_bench", "sweep"]
        );
        assert_eq!(module_path(&ctx("crates/sim/src/lib.rs", "empower-sim")), vec!["empower_sim"]);
        assert_eq!(
            module_path(&ctx("crates/model/src/topology/random.rs", "empower-model")),
            vec!["empower_model", "topology", "random"]
        );
        assert_eq!(
            module_path(&ctx("src/bin/empower.rs", "empower-repro")),
            vec!["empower_repro", "empower"]
        );
    }

    #[test]
    fn imports_cover_groups_aliases_and_self() {
        let lexed = lex("use std::sync::{self, Mutex, atomic::{AtomicUsize, Ordering}};\n\
                         use std::sync::mpsc::channel as chan;\n\
                         use empower_exec::run_indexed;\n");
        let map = collect_imports(&lexed);
        assert_eq!(map["sync"], vec!["std", "sync"]);
        assert_eq!(map["Mutex"], vec!["std", "sync", "Mutex"]);
        assert_eq!(map["Ordering"], vec!["std", "sync", "atomic", "Ordering"]);
        assert_eq!(map["chan"], vec!["std", "sync", "mpsc", "channel"]);
        assert_eq!(map["run_indexed"], vec!["empower_exec", "run_indexed"]);
    }

    #[test]
    fn canonicalize_resolves_heads_through_imports() {
        let c = ctx("crates/x/src/m.rs", "empower-x");
        let lexed = lex("use std::sync::mpsc;\n");
        let map = collect_imports(&lexed);
        let canon = canonicalize(&map, &c, &["mpsc".into(), "channel".into()]);
        assert_eq!(canon, vec!["std", "sync", "mpsc", "channel"]);
        let canon = canonicalize(&map, &c, &["crate".into(), "util".into()]);
        assert_eq!(canon, vec!["empower_x", "util"]);
    }

    #[test]
    fn sanction_binds_to_the_following_item_by_resolution() {
        let src = "/// empower-lint: sanction(D008) — the work cursor only\n\
                   /// distributes indices; no ordering is derived from it.\n\
                   pub fn run_indexed(n: usize) -> usize {\n\
                       n\n\
                   }\n";
        let mut index = WorkspaceIndex::default();
        let p001 = index.add_file(&ctx("crates/exec/src/lib.rs", "empower-exec"), src);
        assert!(p001.is_empty(), "unexpected P001: {p001:?}");
        let s = index.sanctioned_idiom(Rule::D008).expect("sanction recorded");
        assert_eq!(s.item, "empower_exec::run_indexed");
        assert_eq!(s.span, (1, 5));
        assert!(index.sanction_covers("crates/exec/src/lib.rs", Rule::D008, 4));
        assert!(!index.sanction_covers("crates/exec/src/lib.rs", Rule::D007, 4));
        assert!(!index.sanction_covers("crates/other/src/lib.rs", Rule::D008, 4));
    }

    #[test]
    fn sanction_without_item_or_of_wrong_rule_is_p001() {
        let mut index = WorkspaceIndex::default();
        let c = ctx("crates/x/src/m.rs", "empower-x");
        let dangling = index.add_file(&c, "// empower-lint: sanction(D008) — no item follows\n");
        assert_eq!(dangling.len(), 1);
        assert_eq!(dangling[0].rule, Rule::P001);
        let wrong = index
            .add_file(&c, "// empower-lint: sanction(D001) — not sanctionable\npub fn f() {}\n");
        assert_eq!(wrong.len(), 1);
        let reasonless = index.add_file(&c, "// empower-lint: sanction(D008)\npub fn f() {}\n");
        assert_eq!(reasonless.len(), 1);
    }

    #[test]
    fn fn_items_carry_pub_and_spans() {
        let src = "fn private() {}\n\
                   pub fn public() {\n    let x = 1;\n}\n\
                   pub(crate) fn scoped() {}\n";
        let mut index = WorkspaceIndex::default();
        index.add_file(&ctx("crates/x/src/m.rs", "empower-x"), src);
        let items = index.pub_items();
        assert_eq!(items.len(), 3);
        assert!(!items[0].is_pub);
        assert!(items[1].is_pub && items[1].line == 2 && items[1].end_line == 4);
        assert!(items[2].is_pub);
        assert_eq!(items[1].path, "empower_x::m::public");
    }

    #[test]
    fn env_reads_resolve_through_imports() {
        let c = ctx("crates/x/src/m.rs", "empower-x");
        let direct = lex("fn f() { std::env::var(\"EMPOWER_A\").ok(); }\n");
        let reads = env_reads(&direct, &collect_imports(&direct), &c);
        assert_eq!(reads, vec![EnvReadSite { line: 1, name: Some("EMPOWER_A".into()) }]);

        let imported = lex("use std::env;\nfn f() { env::var_os(\"EMPOWER_B\"); }\n");
        let reads = env_reads(&imported, &collect_imports(&imported), &c);
        assert_eq!(reads, vec![EnvReadSite { line: 2, name: Some("EMPOWER_B".into()) }]);

        // A same-named method and an unrelated `var` do not resolve.
        let foreign = lex("fn f(p: &P) { p.var(\"x\"); var(\"y\"); }\n");
        assert!(env_reads(&foreign, &collect_imports(&foreign), &c).is_empty());

        // Non-literal names surface as `None`.
        let dynamic = lex("fn f(n: &str) { std::env::var(n).ok(); }\n");
        let reads = env_reads(&dynamic, &collect_imports(&dynamic), &c);
        assert_eq!(reads, vec![EnvReadSite { line: 1, name: None }]);
    }
}
