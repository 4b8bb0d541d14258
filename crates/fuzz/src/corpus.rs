//! Lossless JSON serialization of [`TrialSpec`]s — the regression
//! corpus format under `tests/fixtures/fuzz_corpus/`.
//!
//! Every field is an integer, a bool or a short string, so the in-tree
//! [`ladm_obs::json`] parser round-trips specs exactly (the `Manual`
//! policy seed is capped below 2^53 by the generator, keeping it exact
//! as an `f64` JSON number).

use crate::gen::{
    ArgSpec, ConfigSpec, LaunchSpec, PolicySpec, SessionSpec, SiteSpec, TrialSpec, MAX_ARGS,
    MAX_LAUNCHES,
};
use ladm_obs::json::Json;
use std::fmt::Write as _;

/// Schema tag of single-launch trial documents.
pub const SCHEMA: &str = "ladm-fuzz-v1";

/// Schema tag of multi-launch session documents.
pub const SESSION_SCHEMA: &str = "ladm-fuzz-session-v1";

/// Either corpus document kind, as returned by the dispatching
/// [`parse_any`] loader.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnySpec {
    /// A single-launch differential trial (`ladm-fuzz-v1`).
    Trial(TrialSpec),
    /// A multi-launch session trial (`ladm-fuzz-session-v1`).
    Session(SessionSpec),
}

fn write_args(out: &mut String, args: &[ArgSpec], ind: &str) {
    for (i, a) in args.iter().enumerate() {
        let comma = if i + 1 == args.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{ind}{{\"elem_bytes\": {}, \"len\": {}, \"written\": {}}}{comma}",
            a.elem_bytes, a.len, a.written
        );
    }
}

fn write_sites(out: &mut String, sites: &[SiteSpec], ind: &str) {
    for (i, s) in sites.iter().enumerate() {
        let comma = if i + 1 == sites.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{ind}{{\"arg\": {}, \"c_const\": {}, \"c_tx\": {}, \"c_ty\": {}, \"c_bx\": {}, \
             \"c_by\": {}, \"c_ind\": {}, \"tid_term\": {}, \"ind_width\": {}, \
             \"row_major\": {}, \"c_data\": {}, \"data_per_iter\": {}, \"epilogue\": {}, \
             \"lane_group\": {}}}{comma}",
            s.arg,
            s.c_const,
            s.c_tx,
            s.c_ty,
            s.c_bx,
            s.c_by,
            s.c_ind,
            s.tid_term,
            s.ind_width,
            s.row_major,
            s.c_data,
            s.data_per_iter,
            s.epilogue,
            s.lane_group
        );
    }
}

fn write_config(out: &mut String, c: &ConfigSpec, ind: &str) {
    let _ = writeln!(
        out,
        "{ind}\"gpus\": {}, \"chiplets\": {}, \"sms_per_chiplet\": {},",
        c.gpus, c.chiplets, c.sms_per_chiplet
    );
    let _ = writeln!(
        out,
        "{ind}\"warps_per_sm\": {}, \"max_tbs_per_sm\": {}, \"issue\": {},",
        c.warps_per_sm, c.max_tbs_per_sm, c.issue
    );
    let _ = writeln!(
        out,
        "{ind}\"l1_sets\": {}, \"l1_assoc\": {}, \"l1_latency\": {},",
        c.l1_sets, c.l1_assoc, c.l1_latency
    );
    let _ = writeln!(
        out,
        "{ind}\"l2_sets\": {}, \"l2_assoc\": {}, \"l2_latency\": {},",
        c.l2_sets, c.l2_assoc, c.l2_latency
    );
    let _ = writeln!(
        out,
        "{ind}\"dram_latency\": {}, \"dram_bw\": {}, \"intra_bw\": {}, \"intra_latency\": {},",
        c.dram_latency, c.dram_bw, c.intra_bw, c.intra_latency
    );
    let _ = writeln!(
        out,
        "{ind}\"ring_bw\": {}, \"ring_latency\": {}, \"switch_bw\": {}, \"switch_latency\": {},",
        c.ring_bw, c.ring_latency, c.switch_bw, c.switch_latency
    );
    let _ = writeln!(
        out,
        "{ind}\"remote_caching\": {}, \"migration_threshold\": {}, \"page_bytes\": {},",
        c.remote_caching, c.migration_threshold, c.page_bytes
    );
    let _ = writeln!(
        out,
        "{ind}\"page_fault_cycles\": {}, \"base_compute_cycles\": {}",
        c.page_fault_cycles, c.base_compute_cycles
    );
}

/// Renders a spec as a corpus JSON document.
pub fn render(spec: &TrialSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(
        out,
        "  \"grid\": [{}, {}], \"block\": [{}, {}],",
        spec.grid.0, spec.grid.1, spec.block.0, spec.block.1
    );
    let _ = writeln!(
        out,
        "  \"trips\": {}, \"intensity\": {}, \"two_d\": {},",
        spec.trips, spec.intensity, spec.two_d
    );
    let _ = writeln!(out, "  \"args\": [");
    write_args(&mut out, &spec.args, "    ");
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"sites\": [");
    write_sites(&mut out, &spec.sites, "    ");
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"config\": {{");
    write_config(&mut out, &spec.config, "    ");
    let _ = writeln!(out, "  }},");
    let policy = match &spec.policy {
        PolicySpec::BaselineRr => "{\"kind\": \"baseline-rr\"}".to_string(),
        PolicySpec::BatchFt => "{\"kind\": \"batch-ft\"}".to_string(),
        PolicySpec::KernelWide => "{\"kind\": \"kernel-wide\"}".to_string(),
        PolicySpec::CodaFlat => "{\"kind\": \"coda-flat\"}".to_string(),
        PolicySpec::CodaHier => "{\"kind\": \"coda-hier\"}".to_string(),
        PolicySpec::LaspRtwice => "{\"kind\": \"lasp-rtwice\"}".to_string(),
        PolicySpec::LaspRonce => "{\"kind\": \"lasp-ronce\"}".to_string(),
        PolicySpec::LaspLadm => "{\"kind\": \"lasp-ladm\"}".to_string(),
        PolicySpec::Swizzle {
            curve,
            group,
            placement,
            two_level,
            batch,
        } => format!(
            "{{\"kind\": \"swizzle\", \"curve\": {curve}, \"group\": {group}, \
             \"placement\": {placement}, \"two_level\": {two_level}, \"batch\": {batch}}}"
        ),
        PolicySpec::Manual { seed } => format!("{{\"kind\": \"manual\", \"seed\": {seed}}}"),
    };
    let _ = writeln!(out, "  \"policy\": {policy}");
    let _ = writeln!(out, "}}");
    out
}

/// Renders a session spec as a corpus JSON document
/// (`ladm-fuzz-session-v1`).
pub fn render_session(spec: &SessionSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"{SESSION_SCHEMA}\",");
    let _ = writeln!(out, "  \"args\": [");
    write_args(&mut out, &spec.args, "    ");
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"launches\": [");
    for (j, l) in spec.launches.iter().enumerate() {
        let comma = if j + 1 == spec.launches.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(out, "    {{");
        let _ = writeln!(
            out,
            "      \"grid\": [{}, {}], \"block\": [{}, {}],",
            l.grid.0, l.grid.1, l.block.0, l.block.1
        );
        let _ = writeln!(
            out,
            "      \"trips\": {}, \"intensity\": {}, \"two_d\": {},",
            l.trips, l.intensity, l.two_d
        );
        let idx: Vec<String> = l.arg_idx.iter().map(|i| i.to_string()).collect();
        let _ = writeln!(out, "      \"arg_idx\": [{}],", idx.join(", "));
        let _ = writeln!(out, "      \"sites\": [");
        write_sites(&mut out, &l.sites, "        ");
        let _ = writeln!(out, "      ]");
        let _ = writeln!(out, "    }}{comma}");
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"config\": {{");
    write_config(&mut out, &spec.config, "    ");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// Parses a corpus JSON document back into a spec.
///
/// # Errors
///
/// Returns a description of the first structural problem: malformed
/// JSON, a wrong or missing schema tag, missing fields, out-of-range
/// values.
pub fn parse(text: &str) -> Result<TrialSpec, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let schema = get_str(&doc, "schema")?;
    if schema != SCHEMA {
        return Err(format!(
            "unsupported schema '{schema}' (expected '{SCHEMA}')"
        ));
    }
    let grid = get_pair(&doc, "grid")?;
    let block = get_pair(&doc, "block")?;
    let args = parse_arg_list(&doc)?;
    let sites = parse_site_list(doc.get("sites"), args.len())?;
    let c = doc.get("config").ok_or("missing 'config' object")?;
    let config = parse_config_obj(c)?;
    let p = doc.get("policy").ok_or("missing 'policy' object")?;
    let policy = match get_str(p, "kind")? {
        "baseline-rr" => PolicySpec::BaselineRr,
        "batch-ft" => PolicySpec::BatchFt,
        "kernel-wide" => PolicySpec::KernelWide,
        "coda-flat" => PolicySpec::CodaFlat,
        "coda-hier" => PolicySpec::CodaHier,
        "lasp-rtwice" => PolicySpec::LaspRtwice,
        "lasp-ronce" => PolicySpec::LaspRonce,
        "lasp-ladm" => PolicySpec::LaspLadm,
        "swizzle" => PolicySpec::Swizzle {
            curve: get_u32(p, "curve")?,
            group: get_u32(p, "group")?,
            placement: get_u32(p, "placement")?,
            two_level: get_bool(p, "two_level")?,
            batch: get_u32(p, "batch")?,
        },
        "manual" => PolicySpec::Manual {
            seed: get_u64(p, "seed")?,
        },
        other => return Err(format!("unknown policy kind '{other}'")),
    };
    Ok(TrialSpec {
        grid,
        block,
        trips: get_count(&doc, "trips")?,
        intensity: get_count(&doc, "intensity")?,
        two_d: get_bool(&doc, "two_d")?,
        args,
        sites,
        config,
        policy,
    })
}

/// Parses a session corpus JSON document (`ladm-fuzz-session-v1`).
///
/// # Errors
///
/// As [`parse`]: a description of the first structural problem.
pub fn parse_session(text: &str) -> Result<SessionSpec, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    let schema = get_str(&doc, "schema")?;
    if schema != SESSION_SCHEMA {
        return Err(format!(
            "unsupported schema '{schema}' (expected '{SESSION_SCHEMA}')"
        ));
    }
    let args = parse_arg_list(&doc)?;
    let launches_json = doc
        .get("launches")
        .and_then(Json::as_array)
        .ok_or("missing 'launches' array")?;
    if launches_json.len() < 2 || launches_json.len() > MAX_LAUNCHES {
        return Err(format!(
            "between 2 and {MAX_LAUNCHES} launches, got {}",
            launches_json.len()
        ));
    }
    let mut launches = Vec::new();
    for l in launches_json {
        let idx_json = l
            .get("arg_idx")
            .and_then(Json::as_array)
            .ok_or("missing 'arg_idx' array")?;
        let mut arg_idx = Vec::new();
        let mut seen = [false; MAX_ARGS];
        for j in idx_json {
            let f = j.as_f64().ok_or("non-numeric 'arg_idx' element")?;
            if f.fract() != 0.0 || !(0.0..MAX_ARGS as f64).contains(&f) {
                return Err("'arg_idx' element out of range".to_string());
            }
            let pi = f as usize;
            if pi >= args.len() {
                return Err(format!(
                    "launch references pool slot {pi} of {}",
                    args.len()
                ));
            }
            if seen[pi] {
                return Err(format!("launch references pool slot {pi} twice"));
            }
            seen[pi] = true;
            arg_idx.push(pi as u32);
        }
        if arg_idx.is_empty() {
            return Err("launch references no arguments".to_string());
        }
        let sites = parse_site_list(l.get("sites"), arg_idx.len())?;
        launches.push(LaunchSpec {
            grid: get_pair(l, "grid")?,
            block: get_pair(l, "block")?,
            trips: get_count(l, "trips")?,
            intensity: get_count(l, "intensity")?,
            two_d: get_bool(l, "two_d")?,
            arg_idx,
            sites,
        });
    }
    let c = doc.get("config").ok_or("missing 'config' object")?;
    Ok(SessionSpec {
        args,
        launches,
        config: parse_config_obj(c)?,
    })
}

/// Parses either corpus document kind, dispatching on the schema tag.
///
/// # Errors
///
/// As [`parse`] / [`parse_session`]; an unknown schema tag names both
/// supported schemas.
pub fn parse_any(text: &str) -> Result<AnySpec, String> {
    let doc = Json::parse(text).map_err(|e| e.to_string())?;
    match get_str(&doc, "schema")? {
        SCHEMA => parse(text).map(AnySpec::Trial),
        SESSION_SCHEMA => parse_session(text).map(AnySpec::Session),
        other => Err(format!(
            "unsupported schema '{other}' (expected '{SCHEMA}' or '{SESSION_SCHEMA}')"
        )),
    }
}

fn parse_arg_list(doc: &Json) -> Result<Vec<ArgSpec>, String> {
    let args_json = doc
        .get("args")
        .and_then(Json::as_array)
        .ok_or("missing 'args' array")?;
    if args_json.is_empty() || args_json.len() > MAX_ARGS {
        return Err(format!(
            "between 1 and {MAX_ARGS} args, got {}",
            args_json.len()
        ));
    }
    let mut args = Vec::new();
    for a in args_json {
        args.push(ArgSpec {
            elem_bytes: get_u32(a, "elem_bytes")?,
            len: get_u64(a, "len")?,
            written: get_bool(a, "written")?,
        });
    }
    Ok(args)
}

fn parse_site_list(json: Option<&Json>, num_args: usize) -> Result<Vec<SiteSpec>, String> {
    let sites_json = json
        .and_then(Json::as_array)
        .ok_or("missing 'sites' array")?;
    let mut sites = Vec::new();
    for s in sites_json {
        let site = SiteSpec {
            arg: get_u32(s, "arg")?,
            c_const: get_i64(s, "c_const")?,
            c_tx: get_i64(s, "c_tx")?,
            c_ty: get_i64(s, "c_ty")?,
            c_bx: get_i64(s, "c_bx")?,
            c_by: get_i64(s, "c_by")?,
            c_ind: get_i64(s, "c_ind")?,
            tid_term: get_bool(s, "tid_term")?,
            ind_width: get_bool(s, "ind_width")?,
            row_major: get_bool(s, "row_major")?,
            c_data: get_i64(s, "c_data")?,
            data_per_iter: get_bool(s, "data_per_iter")?,
            epilogue: get_bool(s, "epilogue")?,
            lane_group: get_count(s, "lane_group")?,
        };
        if site.arg as usize >= num_args {
            return Err(format!("site references arg {} of {num_args}", site.arg));
        }
        sites.push(site);
    }
    Ok(sites)
}

fn parse_config_obj(c: &Json) -> Result<ConfigSpec, String> {
    Ok(ConfigSpec {
        gpus: get_count(c, "gpus")?,
        chiplets: get_count(c, "chiplets")?,
        sms_per_chiplet: get_count(c, "sms_per_chiplet")?,
        warps_per_sm: get_count(c, "warps_per_sm")?,
        max_tbs_per_sm: get_count(c, "max_tbs_per_sm")?,
        issue: get_count(c, "issue")?,
        l1_sets: get_u32(c, "l1_sets")?,
        l1_assoc: get_u32(c, "l1_assoc")?,
        l1_latency: get_u64(c, "l1_latency")?,
        l2_sets: get_u32(c, "l2_sets")?,
        l2_assoc: get_u32(c, "l2_assoc")?,
        l2_latency: get_u64(c, "l2_latency")?,
        dram_latency: get_u64(c, "dram_latency")?,
        dram_bw: get_u32(c, "dram_bw")?,
        intra_bw: get_u32(c, "intra_bw")?,
        intra_latency: get_u64(c, "intra_latency")?,
        ring_bw: get_u32(c, "ring_bw")?,
        ring_latency: get_u64(c, "ring_latency")?,
        switch_bw: get_u32(c, "switch_bw")?,
        switch_latency: get_u64(c, "switch_latency")?,
        remote_caching: get_bool(c, "remote_caching")?,
        migration_threshold: get_u32(c, "migration_threshold")?,
        page_bytes: get_u64(c, "page_bytes")?,
        page_fault_cycles: get_u64(c, "page_fault_cycles")?,
        base_compute_cycles: get_u64(c, "base_compute_cycles")?,
    })
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric '{key}'"))
}

fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
    let f = field_f64(v, key)?;
    if f.fract() != 0.0 || !(0.0..=9.0e15).contains(&f) {
        return Err(format!("'{key}' is not an exact non-negative integer"));
    }
    Ok(f as u64)
}

fn get_u32(v: &Json, key: &str) -> Result<u32, String> {
    let n = get_u64(v, key)?;
    u32::try_from(n).map_err(|_| format!("'{key}' exceeds u32 range"))
}

/// A `u32` count (hardware units, loop trips, lanes per access), which
/// must be at least 1: a zero is rejected rather than replayed as some
/// other spec.
fn get_count(v: &Json, key: &str) -> Result<u32, String> {
    match get_u32(v, key)? {
        0 => Err(format!("'{key}' must be at least 1")),
        n => Ok(n),
    }
}

fn get_i64(v: &Json, key: &str) -> Result<i64, String> {
    let f = field_f64(v, key)?;
    if f.fract() != 0.0 || !(-9.0e15..=9.0e15).contains(&f) {
        return Err(format!("'{key}' is not an exact integer"));
    }
    Ok(f as i64)
}

fn get_bool(v: &Json, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing or non-boolean '{key}'")),
    }
}

fn get_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string '{key}'"))
}

fn get_pair(v: &Json, key: &str) -> Result<(u32, u32), String> {
    let arr = v
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("missing '{key}' array"))?;
    if arr.len() != 2 {
        return Err(format!("'{key}' must have exactly two elements"));
    }
    let to_u32 = |j: &Json| -> Result<u32, String> {
        let f = j.as_f64().ok_or_else(|| format!("non-numeric '{key}'"))?;
        if f.fract() != 0.0 || !(1.0..=1.0e6).contains(&f) {
            return Err(format!("'{key}' element out of range"));
        }
        Ok(f as u32)
    };
    Ok((to_u32(&arr[0])?, to_u32(&arr[1])?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{session_spec, trial_spec};

    #[test]
    fn specs_round_trip_exactly() {
        for trial in 0..40 {
            let spec = trial_spec(9, trial);
            let text = render(&spec);
            let back = parse(&text).unwrap_or_else(|e| panic!("trial {trial}: {e}\n{text}"));
            assert_eq!(back, spec, "trial {trial}");
        }
    }

    #[test]
    fn swizzle_policies_round_trip_exactly() {
        use crate::gen::{registry_policy_specs, PolicySpec};
        // Every canonical registry spec (which includes each swizzle
        // combination) plus an adversarial parameterization.
        let mut specs = registry_policy_specs();
        specs.push(PolicySpec::Swizzle {
            curve: 3,
            group: u32::MAX,
            placement: 2,
            two_level: true,
            batch: u32::MAX,
        });
        for policy in specs {
            let mut spec = trial_spec(9, 3);
            spec.policy = policy;
            let text = render(&spec);
            let back = parse(&text).unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert_eq!(back, spec, "{text}");
        }
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let text = render(&trial_spec(9, 0)).replace(SCHEMA, "ladm-fuzz-v999");
        assert!(parse(&text).unwrap_err().contains("unsupported schema"));
    }

    #[test]
    fn truncation_never_panics() {
        // Strict prefixes of the trimmed document (the rendering's only
        // redundant byte is the trailing newline).
        let text = render(&trial_spec(9, 1));
        let doc = text.trim_end();
        for cut in 0..doc.len() {
            assert!(parse(&doc[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
        assert!(parse(doc).is_ok());
    }

    #[test]
    fn out_of_range_site_arg_is_rejected() {
        let mut spec = trial_spec(9, 2);
        spec.sites[0].arg = 99;
        assert!(parse(&render(&spec))
            .unwrap_err()
            .contains("references arg"));
    }

    /// Sets the first `field` value in a rendered document to 0.
    fn zero_field(text: &str, field: &str) -> String {
        let key = format!("\"{field}\": ");
        let at = text.find(&key).expect("rendered spec has the field") + key.len();
        let end = at + text[at..].find(|c: char| !c.is_ascii_digit()).unwrap();
        format!("{}0{}", &text[..at], &text[end..])
    }

    #[test]
    fn zero_unit_counts_are_rejected() {
        let trial = render(&trial_spec(9, 4));
        for field in ["sms_per_chiplet", "trips", "intensity", "lane_group"] {
            let err = parse(&zero_field(&trial, field)).unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
        // A session document: the first `trips`/`intensity` belong to a
        // launch, the first `lane_group` to one of its sites.
        let session = render_session(&session_spec(9, 4));
        for field in ["sms_per_chiplet", "trips", "intensity", "lane_group"] {
            let err = parse_session(&zero_field(&session, field)).unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let text = render(&trial_spec(9, 3)).replacen(
            "\"schema\"",
            "\"future_extension\": 1, \"schema\"",
            1,
        );
        assert!(parse(&text).is_ok());
    }

    #[test]
    fn session_specs_round_trip_exactly() {
        for trial in 0..40 {
            let spec = session_spec(9, trial);
            let text = render_session(&spec);
            let back =
                parse_session(&text).unwrap_or_else(|e| panic!("trial {trial}: {e}\n{text}"));
            assert_eq!(back, spec, "trial {trial}");
        }
    }

    #[test]
    fn session_schema_gates_the_parsers() {
        let trial_text = render(&trial_spec(9, 0));
        let session_text = render_session(&session_spec(9, 0));
        assert!(parse_session(&trial_text)
            .unwrap_err()
            .contains("unsupported schema"));
        assert!(parse(&session_text)
            .unwrap_err()
            .contains("unsupported schema"));
    }

    #[test]
    fn parse_any_dispatches_on_schema() {
        match parse_any(&render(&trial_spec(9, 1))).unwrap() {
            AnySpec::Trial(t) => assert_eq!(t, trial_spec(9, 1)),
            AnySpec::Session(_) => panic!("trial document parsed as session"),
        }
        match parse_any(&render_session(&session_spec(9, 1))).unwrap() {
            AnySpec::Session(s) => assert_eq!(s, session_spec(9, 1)),
            AnySpec::Trial(_) => panic!("session document parsed as trial"),
        }
        let bogus = render(&trial_spec(9, 2)).replace(SCHEMA, "ladm-fuzz-v999");
        assert!(parse_any(&bogus)
            .unwrap_err()
            .contains("unsupported schema"));
    }

    #[test]
    fn duplicate_pool_slot_is_rejected() {
        let mut spec = session_spec(9, 3);
        let first = spec.launches[0].arg_idx[0];
        spec.launches[0].arg_idx.push(first);
        assert!(parse_session(&render_session(&spec))
            .unwrap_err()
            .contains("twice"));
    }
}
