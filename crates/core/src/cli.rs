//! The one spelling rule of `repro`'s command-line flags, and the one
//! check of the `--quick=N` value every parser shares.

/// Splits every `--flag=V` argument into `--flag` and `V`, so a flag
/// parser matches the `--flag V` spelling only and validates each value
/// once. `--quick=N` stays whole: a bare `--quick` takes no value (it
/// means the default quick corpus), so `N` cannot follow it as a
/// separate argument.
#[must_use]
pub fn split_flag_values(args: impl IntoIterator<Item = String>) -> Vec<String> {
    let mut out = Vec::new();
    for arg in args {
        match arg.split_once('=') {
            Some((flag, value)) if flag.starts_with("--") && flag != "--quick" => {
                out.push(flag.to_string());
                out.push(value.to_string());
            }
            _ => out.push(arg),
        }
    }
    out
}

/// The loop count of a `--quick=N` argument, or `None` when `arg` is
/// not that flag. Inside the `Some`, anything but a positive integer is
/// the usage message: a corpus of no loops has no figure to report.
#[must_use]
pub fn quick_loops(arg: &str) -> Option<Result<usize, &'static str>> {
    let value = arg.strip_prefix("--quick=")?;
    Some(match value.parse() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err("--quick=N needs a positive integer"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(args: &[&str]) -> Vec<String> {
        split_flag_values(args.iter().map(ToString::to_string))
    }

    #[test]
    fn flag_values_split_at_the_first_equals_sign() {
        assert_eq!(
            split(&["--seed=7", "--cache-dir", "d", "--trace=a=b.json", "sweep"]),
            [
                "--seed",
                "7",
                "--cache-dir",
                "d",
                "--trace",
                "a=b.json",
                "sweep"
            ]
        );
        // An empty value is still a value, for the flag's parser to
        // reject.
        assert_eq!(split(&["--shards="]), ["--shards", ""]);
    }

    #[test]
    fn quick_positionals_and_short_arguments_stay_whole() {
        assert_eq!(
            split(&["--quick=60", "--quick", "--csv", "a=b", "-x=1"]),
            ["--quick=60", "--quick", "--csv", "a=b", "-x=1"]
        );
    }

    #[test]
    fn quick_takes_a_positive_loop_count_only() {
        assert_eq!(quick_loops("--quick=60"), Some(Ok(60)));
        assert_eq!(quick_loops("--quick=1"), Some(Ok(1)));
        let rejected = Some(Err("--quick=N needs a positive integer"));
        for bad in [
            "--quick=0",
            "--quick=",
            "--quick=-3",
            "--quick=abc",
            "--quick=1.5",
        ] {
            assert_eq!(quick_loops(bad), rejected, "{bad}");
        }
        for other in ["--quick", "--quickly=3", "fig9", "--seed"] {
            assert_eq!(quick_loops(other), None, "{other}");
        }
    }
}
