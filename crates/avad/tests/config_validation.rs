//! Config-schema tests: every cross-field rule rejects what it claims
//! to, the checked-in fixtures behave (good ones validate, each broken
//! one reports its documented violation), and multi-error files report
//! *every* violation, not just the first.

use std::path::PathBuf;

use avad::config::AvadConfig;

fn violations(src: &str) -> Vec<String> {
    match AvadConfig::from_str(src) {
        Ok(_) => Vec::new(),
        Err(violations) => violations.iter().map(|v| v.to_string()).collect(),
    }
}

fn assert_violates(src: &str, needle: &str) {
    let found = violations(src);
    assert!(
        found.iter().any(|v| v.contains(needle)),
        "expected a violation containing {needle:?}, got {found:#?}"
    );
}

#[test]
fn empty_and_default_configs_validate() {
    assert_eq!(violations(""), Vec::<String>::new());
    let config = AvadConfig::default();
    assert_eq!(config.validate(), Vec::new());
}

#[test]
fn rejects_unknown_sections_keys_and_types() {
    assert_violates("[turbo]\nx = 1\n", "unknown section `[turbo]`");
    assert_violates("[stack]\nslot_inflite = 4\n", "unknown key `slot_inflite`");
    assert_violates("top_level = 1\n", "unknown key `top_level`");
    assert_violates("[daemon]\nlisten = 42\n", "expected a string, got integer");
    assert_violates(
        "[daemon]\nenable_test_hooks = \"yes\"\n",
        "expected a boolean, got string",
    );
    assert_violates("[stack]\npool_size = -2\n", "must be >= 0");
}

#[test]
fn rejects_invalid_enums_and_listen_address() {
    assert_violates(
        "[stack]\ntransport = \"carrier-pigeon\"\n",
        "not one of inproc, shmem, tcp",
    );
    assert_violates("[stack]\napi = \"cuda\"\n", "not one of opencl");
    assert_violates(
        "[stack]\ncost_model = \"cheap\"\n",
        "not one of free, paravirtual, network",
    );
    assert_violates(
        "[stack]\nscheduler = \"round_robin\"\n",
        "not one of fifo, fair_share, priority",
    );
    assert_violates(
        "[stack]\nplacement = \"random\"\n",
        "not one of round_robin, least_loaded, packed",
    );
    assert_violates("[daemon]\nlisten = \"nowhere\"\n", "not a socket address");
}

#[test]
fn rejects_admission_caps_below_slot_budget() {
    assert_violates(
        "[stack]\nslot_inflight = 8\n[admission]\nmax_queue_depth = 4\n",
        "must be >= stack.slot_inflight (4 < 8)",
    );
    assert_violates(
        "[admission]\nmax_queue_depth = 16\nmax_slot_queue_depth = 8\n",
        "must be >= admission.max_queue_depth (8 < 16)",
    );
    assert_violates("[stack]\nslot_inflight = 0\n", "must be >= 1");
    // Consistent caps pass.
    assert_eq!(
        violations("[stack]\nslot_inflight = 2\n[admission]\nmax_queue_depth = 16\nmax_slot_queue_depth = 32\n"),
        Vec::<String>::new()
    );
}

#[test]
fn rejects_quota_past_overcommit_envelope() {
    assert_violates(
        "[stack]\ndevice_mem_capacity = 1000\ndevice_mem_quota = 9000\n",
        "exceeds 8x the device capacity",
    );
    assert_violates(
        "[stack]\ndevice_mem_capacity = 1000\n[tenants.t]\ntoken = \"t\"\ndevice_mem_quota = 9000\n",
        "tenants.t.device_mem_quota",
    );
    // 8x exactly is the supported envelope.
    assert_eq!(
        violations("[stack]\ndevice_mem_capacity = 1000\ndevice_mem_quota = 8000\n"),
        Vec::<String>::new()
    );
    // Without a declared capacity there is nothing to overcommit against.
    assert_eq!(
        violations("[stack]\ndevice_mem_quota = 900000000\n"),
        Vec::<String>::new()
    );
}

#[test]
fn rejects_brownout_without_live_slo() {
    assert_violates(
        "[brownout]\nstage1_burn = 2\n",
        "brownout requires an [slo] section",
    );
    // An [slo] section with no objective set is equally dead.
    assert_violates(
        "[slo]\nmin_window_calls = 8\n[brownout]\nstage1_burn = 2\n",
        "brownout requires an [slo] section",
    );
    assert_eq!(
        violations("[slo]\np99_e2e_us = 1000\n[brownout]\nstage1_burn = 2\n"),
        Vec::<String>::new()
    );
}

#[test]
fn rejects_inverted_brownout_stages() {
    let base = "[slo]\np99_e2e_us = 1000\n";
    assert_violates(
        &format!("{base}[brownout]\nstage1_burn = 4\nstage2_burn = 2\n"),
        "must be >= brownout.stage1_burn (2 < 4)",
    );
    assert_violates(
        &format!("{base}[brownout]\nstage1_burn = 0\n"),
        "brownout.stage1_burn",
    );
    assert_violates(
        &format!("{base}[brownout]\nmax_shed = 0\n"),
        "brownout.max_shed",
    );
}

#[test]
fn rejects_out_of_range_slo_and_rates() {
    assert_violates("[slo]\nmax_retry_rate = 1.5\n", "within 0.0..=1.0");
    assert_violates("[policy]\nrate_limit = 0.0\n", "must be > 0 calls/sec");
    assert_violates(
        "[tenants.t]\ntoken = \"t\"\nrate_limit = -3.0\n",
        "must be > 0 calls/sec",
    );
}

#[test]
fn rejects_integers_outside_their_declared_range() {
    assert_violates(
        "[policy]\npriority = 300\n",
        "policy.priority: must be <= 255 (got 300)",
    );
    assert_violates(
        "[policy]\nweight = 0\n",
        "policy.weight: must be >= 1 (got 0)",
    );
    assert_violates(
        "[policy]\nrate_limit = 5.0\nrate_burst = 0\n",
        "policy.rate_burst: must be >= 1 (got 0)",
    );
    assert_violates(
        "[tenants.a]\ntoken = \"a\"\nmax_inflight = 4294967296\n",
        "tenants.a.max_inflight: must be <= 4294967295 (got 4294967296)",
    );
    assert_violates(
        "[stack]\nmax_respawns = 4294967296\n",
        "stack.max_respawns: must be <= 4294967295",
    );
    assert_violates(
        "[breaker]\nfailure_threshold = 4294967296\nprobe_successes = 4294967296\n",
        "breaker.probe_successes: must be <= 4294967295",
    );
    // A config built in code is held to the same ranges.
    let mut config = AvadConfig::default();
    config.policy.priority = Some(300);
    config.stack.slot_inflight = 0;
    let found: Vec<String> = config.validate().iter().map(|v| v.to_string()).collect();
    assert_eq!(
        found,
        [
            "stack.slot_inflight: must be >= 1 (got 0)",
            "policy.priority: must be <= 255 (got 300)",
        ]
    );
    // The edges of each range are accepted.
    assert_eq!(
        violations(
            "[policy]\npriority = 255\nweight = 1\nmax_inflight = 1\n\
             rate_limit = 1.0\nrate_burst = 4294967295\n\
             [breaker]\nfailure_threshold = 4294967295\n"
        ),
        Vec::<String>::new()
    );
}

#[test]
fn rejects_batch_delay_past_call_deadline() {
    assert_violates(
        "[guest]\ncall_deadline_ms = 10\nbatch_max_delay_us = 20000\n",
        "must be < guest.call_deadline_ms",
    );
    assert_violates("[guest]\ncall_deadline_ms = 0\n", "must be >= 1 when set");
    assert_eq!(
        violations("[guest]\ncall_deadline_ms = 10\nbatch_max_delay_us = 500\n"),
        Vec::<String>::new()
    );
}

#[test]
fn rejects_watchdog_without_pool() {
    assert_violates(
        "[stack]\nrebalance_threshold_ms = 5.0\n",
        "needs a pool of at least 2 slots",
    );
    assert_eq!(
        violations("[stack]\npool_size = 2\nrebalance_threshold_ms = 5.0\n"),
        Vec::<String>::new()
    );
}

#[test]
fn rejects_missing_and_duplicate_tenant_tokens() {
    assert_violates(
        "[tenants.a]\nadmin = true\n",
        "token must be a non-empty string",
    );
    assert_violates(
        "[tenants.a]\ntoken = \"same\"\n[tenants.b]\ntoken = \"same\"\n",
        "token collides with tenants.a",
    );
}

#[test]
fn reports_every_violation_not_just_the_first() {
    let found = violations(
        "[daemon]\nlisten = \"bad\"\n[stack]\nscheduler = \"wat\"\nslot_inflight = 0\n[brownout]\nstage1_burn = 2\n",
    );
    assert!(found.len() >= 4, "wanted >= 4 violations, got {found:#?}");
    for needle in [
        "daemon.listen",
        "stack.scheduler",
        "stack.slot_inflight",
        "brownout",
    ] {
        assert!(
            found.iter().any(|v| v.contains(needle)),
            "missing {needle} in {found:#?}"
        );
    }
}

#[test]
fn toml_syntax_errors_carry_line_numbers() {
    let found = violations("[daemon]\nlisten == \"x\"\n");
    assert_eq!(found.len(), 1, "{found:#?}");
    assert!(found[0].contains("line 2"), "{found:#?}");
}

fn fixtures_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../specs/configs")
}

/// The checked-in good fixtures must validate — they are what CI boots
/// and what the docs point users at.
#[test]
fn good_fixtures_validate() {
    let dir = fixtures_dir();
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        seen += 1;
        let config = AvadConfig::load(&path)
            .unwrap_or_else(|v| panic!("{} should validate: {v:#?}", path.display()));
        // And every good fixture round-trips through the serializer.
        let reparsed = AvadConfig::from_str(&config.to_toml()).unwrap();
        assert_eq!(reparsed, config, "{} round-trip", path.display());
    }
    assert!(seen >= 3, "expected >= 3 good fixtures, saw {seen}");
}

/// Every broken fixture must fail, and each expected-violation line in
/// its `.expect` sidecar must appear in the reported set.
#[test]
fn bad_fixtures_fail_with_expected_violations() {
    let dir = fixtures_dir().join("bad");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("toml") {
            continue;
        }
        seen += 1;
        let expect_path = path.with_extension("toml.expect");
        let expected = std::fs::read_to_string(&expect_path)
            .unwrap_or_else(|e| panic!("{} missing sidecar: {e}", expect_path.display()));
        let found = match AvadConfig::load(&path) {
            Ok(_) => panic!("{} should NOT validate", path.display()),
            Err(violations) => violations.iter().map(|v| v.to_string()).collect::<Vec<_>>(),
        };
        for line in expected.lines().filter(|l| !l.trim().is_empty()) {
            assert!(
                found.iter().any(|v| v.contains(line.trim())),
                "{}: expected violation {line:?} not in {found:#?}",
                path.display()
            );
        }
    }
    assert!(seen >= 6, "expected >= 6 bad fixtures, saw {seen}");
}
