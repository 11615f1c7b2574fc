//! Secret-hygiene rules.
//!
//! * **SH001** — a registered secret type derives `Debug`/`Serialize`
//!   (or hand-writes a `Debug`/`Display` impl) that does not redact.
//! * **SH002** — a registered secret type stores raw key bytes with no
//!   redacted `Debug`: either wrap the fields in `SecretBytes`/`Secret`
//!   or provide an explicitly redacted impl.
//! * **SH003** — a registered secret type does not zeroize on drop
//!   (no `SecretBytes`/`Secret` field, no field of a registered zeroizing
//!   type such as `HmacKey` or `Aes128`, and no `Drop` impl).

use crate::config::Config;
use crate::lexer::{brace_block, find_word};
use crate::scan::FileAnalysis;
use crate::Finding;

/// Runs the secret-hygiene pass over one file.
pub fn check(analysis: &FileAnalysis, config: &Config, findings: &mut Vec<Finding>) {
    for ty in &config.secret_types {
        if !analysis.rel_path.ends_with(&ty.path_suffix) {
            continue;
        }
        check_type(analysis, config, &ty.name, ty.require_zeroize, findings);
    }
}

fn push(
    findings: &mut Vec<Finding>,
    analysis: &FileAnalysis,
    rule: &str,
    offset: usize,
    message: String,
) {
    findings.push(Finding {
        rule: rule.to_owned(),
        path: analysis.rel_path.clone(),
        line: analysis.line(offset),
        message,
    });
}

fn check_type(
    analysis: &FileAnalysis,
    config: &Config,
    name: &str,
    require_zeroize: bool,
    findings: &mut Vec<Finding>,
) {
    let clean = &analysis.clean;
    let Some(decl) = find_struct(clean, name) else {
        push(
            findings,
            analysis,
            "SH002",
            0,
            format!("registered secret type `{name}` not found (stale lint registry?)"),
        );
        return;
    };

    let body = struct_body(clean, decl, name);
    let has_container = body.contains("SecretBytes") || body.contains("Secret<");
    let derives = derive_list(clean, decl);

    // SH001: leaking derives on raw key bytes.
    for leak in ["Debug", "Serialize"] {
        if derives.iter().any(|d| d == leak) && !has_container {
            push(
                findings,
                analysis,
                "SH001",
                decl,
                format!(
                    "`{name}` derives `{leak}` over raw key bytes; wrap the fields in \
                     `SecretBytes`/`Secret` or write a redacted impl"
                ),
            );
        }
    }

    // SH001: hand-written Debug/Display that does not redact. The check
    // looks at the *raw* impl text because "<redacted>" lives inside a
    // string literal.
    let mut has_redacted_debug = false;
    for trait_name in ["Debug", "Display"] {
        if let Some((at, raw_impl)) = find_impl(analysis, trait_name, name) {
            if raw_impl.contains("redact") {
                if trait_name == "Debug" {
                    has_redacted_debug = true;
                }
            } else {
                push(
                    findings,
                    analysis,
                    "SH001",
                    at,
                    format!("`{trait_name}` impl for `{name}` does not redact key material"),
                );
            }
        }
    }

    // SH002: raw key bytes with no redaction story at all.
    if !has_container && !has_redacted_debug {
        push(
            findings,
            analysis,
            "SH002",
            decl,
            format!(
                "`{name}` stores raw key bytes with no redacted `Debug`; wrap the fields in \
                 `SecretBytes`/`Secret` or add a redacted impl"
            ),
        );
    }

    // SH003: no zeroize-on-drop path. A field of another registered
    // zeroizing type wipes itself; a redact-only one (`Sha256`) does not.
    let zeroizes = has_container
        || config
            .secret_types
            .iter()
            .any(|t| t.require_zeroize && t.name != name && find_word(body, &t.name, 0).is_some());
    if require_zeroize && !zeroizes && find_impl(analysis, "Drop", name).is_none() {
        push(
            findings,
            analysis,
            "SH003",
            decl,
            format!(
                "`{name}` does not zeroize on drop; use `SecretBytes`/`Secret` fields, \
                 fields of a registered zeroizing type, or implement `Drop`"
            ),
        );
    }
}

/// Offset of `struct <name>` (outside tests) in clean text.
fn find_struct(clean: &str, name: &str) -> Option<usize> {
    let mut from = 0;
    while let Some(at) = find_word(clean, name, from) {
        let before = clean[..at].trim_end();
        if before.ends_with("struct") {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// The struct body: brace block, tuple parens, or empty for unit structs.
fn struct_body<'a>(clean: &'a str, decl: usize, name: &str) -> &'a str {
    let after = decl + name.len();
    let bytes = clean.as_bytes();
    // Find the first of `{`, `(` or `;` after the name (skipping generics).
    let mut depth = 0i32;
    for k in after..bytes.len() {
        match bytes[k] {
            b'<' => depth += 1,
            b'>' => depth -= 1,
            b'{' if depth == 0 => {
                return brace_block(clean, k).map_or("", |(s, e)| &clean[s..e]);
            }
            b'(' if depth == 0 => {
                let close = clean[k..].find(';').map_or(clean.len(), |r| k + r);
                return &clean[k..close];
            }
            b';' if depth == 0 => return "",
            _ => {}
        }
    }
    ""
}

/// The `derive(...)` identifiers attached to the struct at `decl`.
fn derive_list(clean: &str, decl: usize) -> Vec<String> {
    // Walk backward over the attribute lines directly above the
    // declaration, collecting every `derive(...)` argument list.
    let head = &clean[..decl];
    let mut derives = Vec::new();
    let mut lines: Vec<&str> = head.lines().collect();
    lines.pop(); // the (partial) declaration line itself
    while let Some(line) = lines.pop() {
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if !trimmed.starts_with("#[") {
            break;
        }
        if let Some(start) = trimmed.find("derive(") {
            let args = &trimmed[start + "derive(".len()..];
            let end = args.find(')').unwrap_or(args.len());
            for ident in args[..end].split(',') {
                let ident = ident.trim();
                // Keep only the final path segment (serde::Serialize).
                let last = ident.rsplit("::").next().unwrap_or(ident);
                if !last.is_empty() {
                    derives.push(last.to_owned());
                }
            }
        }
    }
    derives
}

/// Locates `impl <Trait> for <name>` and returns (offset, raw impl text).
fn find_impl<'a>(
    analysis: &'a FileAnalysis,
    trait_name: &str,
    name: &str,
) -> Option<(usize, &'a str)> {
    let clean = &analysis.clean;
    let needle = format!("{trait_name} for ");
    let mut from = 0;
    while let Some(rel) = clean[from..].find(&needle) {
        let at = from + rel;
        let target = at + needle.len();
        if find_word(clean, name, target) == Some(target) {
            // Confirm this is an impl header: `impl` appears between the
            // previous item boundary and the match.
            let head_start = clean[..at].rfind(['}', ';']).map_or(0, |p| p + 1);
            if clean[head_start..at].contains("impl") {
                let (s, e) = brace_block(clean, target)?;
                let _ = s;
                return Some((at, &analysis.raw[at..e]));
            }
        }
        from = at + 1;
    }
    None
}
