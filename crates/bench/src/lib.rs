//! Shared helpers for the table/figure regeneration binaries.
//!
//! One binary per paper artifact (see DESIGN.md §4 for the index):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_components` | Table I + Fig. 3 topology |
//! | `table3_power_verification` | Table III |
//! | `table4_daily_stats` | Table IV (183-day replay) |
//! | `fig4_power_breakdown` | Fig. 4 |
//! | `fig7_cooling_validation` | Fig. 7 + Table II + Fig. 5 stations |
//! | `fig8_synthetic_benchmarks` | Fig. 8 |
//! | `fig9_telemetry_replay` | Fig. 9 |
//! | `whatif_studies` | §IV-3 what-if results |

#![warn(missing_docs)]

/// Print a boxed section title.
pub fn section(title: &str) {
    let width = title.chars().count() + 4;
    println!("┌{}┐", "─".repeat(width));
    println!("│  {title}  │");
    println!("└{}┘", "─".repeat(width));
}

/// Parse `--flag value` style integer arguments (tiny, no deps).
pub fn arg_u64(flag: &str, default: u64) -> u64 {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parse `--flag value` style string arguments (tiny, no deps).
pub fn arg_str(flag: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| default.to_string())
}

/// Format watts as megawatts.
pub fn mw(w: f64) -> f64 {
    w / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_parse_default() {
        assert_eq!(arg_u64("--not-present", 42), 42);
        assert_eq!(arg_str("--not-present", "plant"), "plant");
    }

    #[test]
    fn mw_scales() {
        assert_eq!(mw(28.2e6), 28.2);
    }
}
