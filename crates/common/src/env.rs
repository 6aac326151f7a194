//! Unified environment-knob parsing.
//!
//! Every `PF_*` tunable in the workspace goes through [`env_knob`] (typed
//! values) or [`env_switch`] (on/off toggles) instead of ad-hoc
//! `std::env::var(..).ok().and_then(|v| v.parse().ok())` chains. The
//! semantics are deliberately forgiving and uniform:
//!
//! * an unset variable is simply absent (`None`),
//! * surrounding whitespace is trimmed before parsing,
//! * an empty or unparsable value is treated as absent rather than a
//!   panic — a typo in an env var must never take down a workload run.
//!
//! Callers that need a default compose with `unwrap_or` at the call
//! site, keeping the default visible where the knob is consumed.

use std::str::FromStr;

/// Reads and parses environment knob `name` as a `T`.
///
/// Returns `None` when the variable is unset, empty (after trimming),
/// not valid UTF-8, or fails to parse — parsing is fallible, never
/// panicking.
pub fn env_knob<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        return None;
    }
    trimmed.parse().ok()
}

/// Reads environment knob `name` as an on/off switch.
///
/// `off`, `0`, and `false` (case-insensitive, trimmed) read as `false`;
/// any other set value reads as `true`; unset reads as `default`.
/// `PF_MORSEL`, which defaults on and is disabled explicitly, reads this
/// way.
pub fn env_switch(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "off" | "0" | "false"
        ),
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Serializes every test that mutates process environment: `set_var`
    /// is process-global, so unsynchronized tests would race.
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn knob_parses_trims_and_rejects() {
        let _guard = ENV_LOCK.lock().expect("env lock");
        let name = "PF_TEST_KNOB_PARSE";
        std::env::remove_var(name);
        assert_eq!(env_knob::<u64>(name), None);

        std::env::set_var(name, "42");
        assert_eq!(env_knob::<u64>(name), Some(42));
        assert_eq!(env_knob::<f64>(name), Some(42.0));

        std::env::set_var(name, "  7  ");
        assert_eq!(env_knob::<u64>(name), Some(7));

        std::env::set_var(name, "");
        assert_eq!(env_knob::<u64>(name), None);

        std::env::set_var(name, "not-a-number");
        assert_eq!(env_knob::<u64>(name), None);

        std::env::set_var(name, "-3");
        assert_eq!(env_knob::<u64>(name), None);
        assert_eq!(env_knob::<i64>(name), Some(-3));
        std::env::remove_var(name);
    }

    #[test]
    fn switch_honours_off_spellings_and_default() {
        let _guard = ENV_LOCK.lock().expect("env lock");
        let name = "PF_TEST_KNOB_SWITCH";
        std::env::remove_var(name);
        assert!(env_switch(name, true));
        assert!(!env_switch(name, false));

        for off in ["off", "0", "false", " OFF ", "False"] {
            std::env::set_var(name, off);
            assert!(!env_switch(name, true), "{off:?} should read as off");
        }
        for on in ["on", "1", "true", "yes", "anything"] {
            std::env::set_var(name, on);
            assert!(env_switch(name, false), "{on:?} should read as on");
        }
        std::env::remove_var(name);
    }
}
