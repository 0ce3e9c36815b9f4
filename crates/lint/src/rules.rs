//! The lint rules. Each rule pattern-matches cleaned source lines (comments
//! and literals blanked, test-gated regions masked — see [`crate::cleaner`])
//! so findings are always in live, non-test code.

use crate::cleaner;
use std::collections::BTreeSet;

/// Crates whose outputs are content-addressed or compared byte-for-byte:
/// unspecified iteration order anywhere in them is a determinism hazard.
const DETERMINISM_CRATES: &[&str] = &["core", "stats", "analysis", "cluster", "partcomm", "apps"];

/// The crate allowed to spawn raw threads (it owns thread lifecycle).
const SPAWN_CRATE: &str = "runtime";

/// The crate whose request-handling/decode paths must not panic.
const PANIC_PATH_CRATE: &str = "serve";

/// Files whose `Deserialize` structs are wire formats needing
/// `#[serde(default)]` on non-seed fields for rolling back-compat.
const SERDE_DEFAULT_FILES: &[&str] = &[
    "crates/serve/src/protocol.rs",
    "crates/serve/src/scenario.rs",
];

/// Every rule id, for `--help` style listings and waiver validation.
pub const RULE_IDS: &[&str] = &[
    "no-hash-iteration",
    "no-wall-clock",
    "no-raw-spawn",
    "no-panic-path",
    "serde-default",
    "no-test-only-pub",
];

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    /// A stable short token identifying the finding within the file, used
    /// for item-level waivers (e.g. `HashMap`, `unwrap`,
    /// `expect("message")`, `Struct.field`).
    pub item: String,
    pub message: String,
}

/// A source file prepared for linting.
pub struct SourceFile {
    /// Repo-relative path, forward slashes (e.g. `crates/serve/src/lib.rs`).
    pub rel_path: String,
    /// The crate directory name (`serve` for `crates/serve/src/...`).
    pub crate_name: String,
    pub original: Vec<String>,
    pub cleaned: Vec<String>,
    pub test_mask: Vec<bool>,
}

impl SourceFile {
    pub fn new(rel_path: &str, crate_name: &str, content: &str) -> SourceFile {
        let cleaned_text = cleaner::clean(content);
        let test_mask = cleaner::test_mask(&cleaned_text);
        SourceFile {
            rel_path: rel_path.to_string(),
            crate_name: crate_name.to_string(),
            original: content.lines().map(str::to_string).collect(),
            cleaned: cleaned_text.lines().map(str::to_string).collect(),
            test_mask,
        }
    }

    /// Iterate (1-based line number, cleaned line) over live non-test lines.
    fn live_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.cleaned
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.test_mask.get(*i).copied().unwrap_or(false))
            .map(|(i, line)| (i + 1, line.as_str()))
    }
}

/// Runs every applicable rule over one file.
pub fn check_file(file: &SourceFile) -> Vec<Violation> {
    let mut out = Vec::new();
    no_hash_iteration(file, &mut out);
    no_wall_clock(file, &mut out);
    no_raw_spawn(file, &mut out);
    no_panic_path(file, &mut out);
    serde_default(file, &mut out);
    out
}

/// `no-hash-iteration`: std hash collections are banned wholesale in
/// determinism-critical crates — their iteration order varies run to run,
/// and "only used for lookup" claims rot silently. Use `BTreeMap`/`BTreeSet`
/// or waive with a justification that the map is never iterated for output.
fn no_hash_iteration(file: &SourceFile, out: &mut Vec<Violation>) {
    if !DETERMINISM_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    for (line_no, line) in file.live_lines() {
        for token in ["HashMap", "HashSet"] {
            if contains_word(line, token) {
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: line_no,
                    rule: "no-hash-iteration",
                    item: token.to_string(),
                    message: format!(
                        "{token} in determinism-critical crate `{}`: iteration order is \
                         unspecified; use BTreeMap/BTreeSet or sort before emitting",
                        file.crate_name
                    ),
                });
            }
        }
    }
}

/// `no-wall-clock`: `Instant::now`/`SystemTime::now` make output depend on
/// the machine's clock. Only designated wall-timing modules (measurement
/// harness, network deadlines) may read the clock — via waiver.
fn no_wall_clock(file: &SourceFile, out: &mut Vec<Violation>) {
    for (line_no, line) in file.live_lines() {
        for token in ["Instant::now", "SystemTime::now"] {
            if line.contains(token) {
                out.push(Violation {
                    file: file.rel_path.clone(),
                    line: line_no,
                    rule: "no-wall-clock",
                    item: token.to_string(),
                    message: format!(
                        "{token} outside the wall-timing allowlist: clock reads must not \
                         influence deterministic outputs"
                    ),
                });
            }
        }
    }
}

/// `no-raw-spawn`: thread lifecycle belongs to `runtime` (named threads,
/// joined handles). Raw `thread::spawn` elsewhere loses names in panics and
/// leaks join responsibility. `thread::Builder` spawns don't match.
fn no_raw_spawn(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.crate_name == SPAWN_CRATE {
        return;
    }
    for (line_no, line) in file.live_lines() {
        if line.contains("thread::spawn") {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: line_no,
                rule: "no-raw-spawn",
                item: "thread::spawn".to_string(),
                message: "raw thread::spawn outside crates/runtime: use \
                          thread::Builder with a name, or the runtime pool"
                    .to_string(),
            });
        }
    }
}

/// `no-panic-path`: the serve tier must not panic on request handling or
/// protocol decode — a malformed line from one client must become an error
/// reply, not take the server down. Invariant `expect`s are waived by their
/// message string, which keeps each waiver pinned to one documented claim.
fn no_panic_path(file: &SourceFile, out: &mut Vec<Violation>) {
    if file.crate_name != PANIC_PATH_CRATE {
        return;
    }
    for (line_no, line) in file.live_lines() {
        let mut search = 0;
        while let Some(pos) = line[search..].find(".unwrap()").map(|p| p + search) {
            out.push(Violation {
                file: file.rel_path.clone(),
                line: line_no,
                rule: "no-panic-path",
                item: "unwrap".to_string(),
                message: "unwrap() in serve: malformed input or lost invariants must \
                          surface as typed errors, not panics"
                    .to_string(),
            });
            search = pos + ".unwrap()".len();
        }
        let mut search = 0;
        while let Some(pos) = line[search..].find(".expect(").map(|p| p + search) {
            let item = expect_item(file, line_no, pos + ".expect(".len());
            out.push(Violation {
                file: file.rel_path.clone(),
                line: line_no,
                rule: "no-panic-path",
                item,
                message: "expect() in serve: panics on request paths take the server \
                          down; return an error or waive with justification"
                    .to_string(),
            });
            search = pos + ".expect(".len();
        }
    }
}

/// Reads the expect message from the original source (the cleaned line has
/// it blanked) to form a waiver item like `expect("message")`. Falls back to
/// `expect(...)` when the argument is not a simple literal on the same line.
fn expect_item(file: &SourceFile, line_no: usize, col_after_paren: usize) -> String {
    let original = match file.original.get(line_no - 1) {
        Some(l) => l,
        None => return "expect(...)".to_string(),
    };
    let tail: String = original.chars().skip(col_after_paren).collect();
    let trimmed = tail.trim_start();
    if let Some(rest) = trimmed.strip_prefix('"') {
        if let Some(end) = rest.find('"') {
            return format!("expect(\"{}\")", &rest[..end]);
        }
    }
    "expect(...)".to_string()
}

/// `serde-default`: fields of `Deserialize` structs in the wire-format files
/// must carry `#[serde(default)]` so an old client's message (missing the
/// field) still decodes. Seed fields — present since the first protocol
/// version — are waived by item (`Struct.field`).
fn serde_default(file: &SourceFile, out: &mut Vec<Violation>) {
    if !SERDE_DEFAULT_FILES.contains(&file.rel_path.as_str()) {
        return;
    }
    let lines = &file.cleaned;
    let mut i = 0;
    while i < lines.len() {
        let masked = file.test_mask.get(i).copied().unwrap_or(false);
        let t = lines[i].trim();
        if masked || !(t.starts_with("#[derive(") && t.contains("Deserialize")) {
            i += 1;
            continue;
        }
        // Skip trailing attributes/blank lines down to the item header.
        let mut j = i + 1;
        while j < lines.len() {
            let h = lines[j].trim();
            if h.is_empty() || h.starts_with("#[") {
                j += 1;
            } else {
                break;
            }
        }
        if j >= lines.len() {
            break;
        }
        let header = lines[j].trim();
        let Some(struct_name) = braced_struct_name(header) else {
            // Enums and tuple structs are out of scope for this rule.
            i = j + 1;
            continue;
        };
        // Walk fields at depth 1 until the struct's closing brace.
        let mut depth: i32 =
            header.matches('{').count() as i32 - header.matches('}').count() as i32;
        let mut k = j + 1;
        let mut pending_default = false;
        while k < lines.len() && depth > 0 {
            let line = lines[k].trim();
            if line.starts_with("#[") {
                if line.contains("serde(default") {
                    pending_default = true;
                }
                k += 1;
                continue;
            }
            if depth == 1 {
                if let Some(field) = field_name(line) {
                    if !pending_default {
                        out.push(Violation {
                            file: file.rel_path.clone(),
                            line: k + 1,
                            rule: "serde-default",
                            item: format!("{struct_name}.{field}"),
                            message: format!(
                                "field `{field}` of wire struct `{struct_name}` lacks \
                                 #[serde(default)]: older peers omitting it would fail \
                                 to decode; add a default or waive as a seed field"
                            ),
                        });
                    }
                    pending_default = false;
                }
            }
            depth += line.matches('{').count() as i32;
            depth -= line.matches('}').count() as i32;
            k += 1;
        }
        i = k;
    }
}

/// `pub struct Name {` / `struct Name {` → `Some("Name")`; anything else
/// (enum, tuple struct, unit struct) → `None`.
fn braced_struct_name(header: &str) -> Option<&str> {
    let after = header.strip_prefix("pub ").unwrap_or(header);
    let rest = after.strip_prefix("struct ")?;
    // Require a braced body opening on this line (the repo's style always
    // is); tuple/unit structs fall out here.
    if !header.contains('{') {
        return None;
    }
    let name_end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    let name = &rest[..name_end];
    (!name.is_empty()).then_some(name)
}

/// `pub foo: Type,` / `foo: Type,` at struct-field depth → `Some("foo")`.
fn field_name(line: &str) -> Option<&str> {
    let t = line.strip_prefix("pub ").unwrap_or(line);
    let colon = t.find(':')?;
    // Exclude paths (`::`) and non-identifier prefixes.
    if t[colon..].starts_with("::") {
        return None;
    }
    let name = t[..colon].trim();
    (!name.is_empty() && name.chars().all(|c| c.is_alphanumeric() || c == '_')).then_some(name)
}

/// `no-test-only-pub`: a `pub` item of `crates/*/src` that no live code in
/// another file names is surface only tests reach — delete it, narrow it, or
/// waive it as a test seam. Referrers are the live lines of every file given
/// (`crates/*/src`, `src/`, `examples/`, `benchmark/src`); `pub use`
/// re-exports and the name a `fn` defines do not count. In the item's own
/// file, a mention in another `pub` item's header (an enum's or trait's whole
/// body) or on a `pub` field line counts, since narrowing the item would trip
/// `private_interfaces`. Returns the violations, then the findings only
/// `benchmark/src` names: those are listed, not refused, because the
/// benchmark may not be edited.
pub fn no_test_only_pub(files: &[SourceFile]) -> (Vec<Violation>, Vec<Violation>) {
    let referrers: Vec<BTreeSet<&str>> = files.iter().map(referrer_words).collect();
    let (mut violations, mut benchmark_only) = (Vec::new(), Vec::new());
    for (fi, file) in files.iter().enumerate() {
        if !file.rel_path.starts_with("crates/") {
            continue;
        }
        let items = pub_items(file);
        let interface: Vec<usize> = file
            .live_lines()
            .map(|(no, _)| no - 1)
            .filter(|&i| {
                let t = file.cleaned[i].trim_start();
                (t.starts_with("pub ") && !t.starts_with("pub use "))
                    || items.iter().any(|it| it.interface.contains(&i))
            })
            .collect();
        for item in &items {
            let in_signature = interface.iter().any(|&i| {
                !item.interface.contains(&i) && contains_word(&file.cleaned[i], item.name)
            });
            let named_by = |bench: bool| {
                files
                    .iter()
                    .zip(&referrers)
                    .enumerate()
                    .any(|(oi, (other, words))| {
                        oi != fi
                            && other.rel_path.starts_with("benchmark/") == bench
                            && words.contains(item.name)
                    })
            };
            if in_signature || named_by(false) {
                continue;
            }
            let (sink, message) = if named_by(true) {
                (&mut benchmark_only, "named only by benchmark/src")
            } else {
                (
                    &mut violations,
                    "named by no live code outside its file and the tests: delete it, \
                     narrow it, or waive it as a test seam",
                )
            };
            sink.push(Violation {
                file: file.rel_path.clone(),
                line: item.line + 1,
                rule: "no-test-only-pub",
                item: item.name.to_string(),
                message: format!("pub {} `{}` is {message}", item.kind, item.name),
            });
        }
    }
    (violations, benchmark_only)
}

/// A `pub` item defined in live code: its kind, name, 0-based line, and the
/// lines that state its interface (the header through its first `{` or `;`,
/// and the whole body of an enum or trait).
struct PubItem<'a> {
    kind: &'a str,
    name: &'a str,
    line: usize,
    interface: std::ops::RangeInclusive<usize>,
}

fn pub_items(file: &SourceFile) -> Vec<PubItem<'_>> {
    let mut items = Vec::new();
    for (no, line) in file.live_lines() {
        let Some((kind, name)) = pub_item(line) else {
            continue;
        };
        let (start, mut end, mut depth, mut opened) = (no - 1, no - 1, 0i32, false);
        for (i, l) in file.cleaned.iter().enumerate().skip(start) {
            end = i;
            depth += l.matches('{').count() as i32 - l.matches('}').count() as i32;
            opened |= l.contains('{');
            let done = if matches!(kind, "enum" | "trait") {
                opened && depth <= 0
            } else {
                l.contains(['{', ';']) || (matches!(kind, "const" | "static") && l.contains('='))
            };
            if done {
                break;
            }
        }
        items.push(PubItem {
            kind,
            name,
            line: start,
            interface: start..=end,
        });
    }
    items
}

/// `pub [const|async|unsafe|extern ".."] KIND Name` → `(KIND, Name)` for the
/// item kinds the rule checks; `pub use`, `pub mod`, fields and restricted
/// visibilities → `None`.
fn pub_item(line: &str) -> Option<(&str, &str)> {
    let mut rest = line.trim_start().strip_prefix("pub ")?;
    loop {
        let word = ident(rest)?;
        let tail = &rest[rest.find(word)? + word.len()..];
        match (word, ident(tail)) {
            ("const", Some("fn" | "unsafe" | "async" | "extern"))
            | ("async" | "unsafe" | "extern", _) => rest = tail,
            ("fn" | "struct" | "enum" | "trait" | "type" | "const" | "static", Some(name)) => {
                return Some((word, name))
            }
            _ => return None,
        }
    }
}

/// The leading identifier of `s` after whitespace.
fn ident(s: &str) -> Option<&str> {
    let s = s.trim_start();
    let end = s
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(s.len());
    (end > 0).then_some(&s[..end])
}

/// Every identifier on a file's live lines, `pub use` re-exports excepted.
fn referrer_words(file: &SourceFile) -> BTreeSet<&str> {
    let mut words = BTreeSet::new();
    let mut in_reexport = false;
    for (_, line) in file.live_lines() {
        in_reexport |= line.trim_start().starts_with("pub use ");
        if in_reexport {
            in_reexport = !line.contains(';');
            continue;
        }
        // A definition names nothing: the word after `fn` is skipped.
        let mut prev = "";
        for word in self::words(line) {
            if prev != "fn" {
                words.insert(word);
            }
            prev = word;
        }
    }
    words
}

/// The identifiers and number literals of a line, in order.
fn words(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// Word-boundary contains: `token` not embedded in a longer identifier.
fn contains_word(line: &str, token: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = line[start..].find(token).map(|p| p + start) {
        let before_ok = pos == 0
            || !line[..pos]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_alphanumeric() || c == '_');
        let after = pos + token.len();
        let after_ok = !line[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
        if before_ok && after_ok {
            return true;
        }
        start = pos + token.len();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(crate_name: &str, rel: &str, src: &str) -> SourceFile {
        SourceFile::new(rel, crate_name, src)
    }

    #[test]
    fn hash_rule_scopes_to_determinism_crates() {
        let src = "use std::collections::HashMap;\n";
        let hits = check_file(&file("core", "crates/core/src/x.rs", src));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, "no-hash-iteration");
        let none = check_file(&file("serve", "crates/serve/src/x.rs", src));
        assert!(none.iter().all(|v| v.rule != "no-hash-iteration"));
    }

    #[test]
    fn expect_items_carry_the_message() {
        let src = "fn f(x: Option<u8>) -> u8 { x.expect(\"present\") }\n";
        let hits = check_file(&file("serve", "crates/serve/src/x.rs", src));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].item, "expect(\"present\")");
    }

    #[test]
    fn serde_default_flags_only_missing_fields() {
        let src = "#[derive(Debug, Deserialize)]\npub struct Wire {\n    pub seed: u64,\n    #[serde(default)]\n    pub added: u32,\n}\n";
        let hits = check_file(&file("serve", "crates/serve/src/protocol.rs", src));
        let serde_hits: Vec<_> = hits.iter().filter(|v| v.rule == "serde-default").collect();
        assert_eq!(serde_hits.len(), 1, "{serde_hits:?}");
        assert_eq!(serde_hits[0].item, "Wire.seed");
    }

    #[test]
    fn builder_spawn_is_allowed() {
        let src = "std::thread::Builder::new().name(n).spawn(f)\n";
        let hits = check_file(&file("bench", "crates/bench/src/x.rs", src));
        assert!(hits.iter().all(|v| v.rule != "no-raw-spawn"), "{hits:?}");
    }
}
