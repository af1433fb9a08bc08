//! Command-line support for the two `spatialdb-bench` binaries: the
//! paper's figures (`figures`, flags `--fig` and `--scale`) and the
//! checked-in reports (`scenarios`, no flags).
//!
//! Neither binary silently runs its default. The whole command line is
//! checked against the binary's flags before anything runs or is
//! written: a stray argument, a flag given twice, a missing or malformed
//! value each end the process with status 2 and a message naming it.

use std::str::FromStr;

/// End the process with status 2 and `message` on stderr: the one way
/// out of a command line the binary cannot run.
pub fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// A binary's command line, checked against its flags.
#[derive(Debug)]
pub struct CommandLine {
    args: Vec<String>,
}

impl CommandLine {
    /// The process's command line, checked against `flags` (each takes
    /// one value). Anything else on it ends the process through
    /// [`usage_error`].
    pub fn checked(flags: &[&str]) -> Self {
        let args: Vec<String> = std::env::args().collect();
        check_args(&args, flags).unwrap_or_else(|message| usage_error(&message));
        CommandLine { args }
    }

    /// The value of the `--name <value>` flag, or `default` when the
    /// flag is absent. A malformed or missing value ends the process
    /// through [`usage_error`], naming flag and value.
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> T {
        parse_flag(&self.args, name, default).unwrap_or_else(|message| usage_error(&message))
    }
}

/// Check the whole command line `args` (program name first) against
/// `flags`: every other argument is an error naming it, and so is a flag
/// given twice. The argument after a flag is its value, which
/// [`parse_flag`] checks.
fn check_args(args: &[String], flags: &[&str]) -> Result<(), String> {
    let mut seen: Vec<&str> = Vec::new();
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(arg) = rest.next() {
        if !flags.contains(&arg) {
            return Err(match flags {
                [] => format!("unexpected argument {arg:?}: this binary takes none"),
                _ => format!("unknown argument {arg:?} (flags: {})", flags.join(" ")),
            });
        }
        if seen.contains(&arg) {
            return Err(format!("{arg} given twice"));
        }
        seen.push(arg);
        rest.next();
    }
    Ok(())
}

/// `--name <value>` out of `args`, parsed as `T`; `default` when the
/// flag is absent. A flag that is given must carry a well-formed value:
/// the error names both.
fn parse_flag<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    let Some(pos) = args.iter().position(|a| a == name) else {
        return Ok(default);
    };
    let value = args
        .get(pos + 1)
        .ok_or_else(|| format!("{name} needs a value"))?;
    value
        .parse()
        .map_err(|_| format!("{name}: cannot parse {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::{check_args, parse_flag};

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn an_absent_flag_takes_the_default() {
        assert_eq!(parse_flag(&args("bin --fig 8"), "--scale", 1.0), Ok(1.0));
    }

    #[test]
    fn a_well_formed_value_is_parsed() {
        let line = args("bin --scale 0.5 --fig 8 --out report.json");
        assert_eq!(parse_flag(&line, "--scale", 1.0), Ok(0.5));
        assert_eq!(
            parse_flag(&line, "--fig", String::new()),
            Ok(String::from("8"))
        );
        assert_eq!(
            parse_flag(&line, "--out", String::from("default.json")),
            Ok(String::from("report.json"))
        );
    }

    #[test]
    fn a_malformed_value_is_an_error_naming_flag_and_value() {
        assert_eq!(
            parse_flag(&args("bin --scale 3%"), "--scale", 1.0),
            Err(String::from("--scale: cannot parse \"3%\""))
        );
    }

    #[test]
    fn a_trailing_flag_without_a_value_is_an_error() {
        assert_eq!(
            parse_flag(&args("bin --fig 8 --scale"), "--scale", 1.0),
            Err(String::from("--scale needs a value"))
        );
    }

    const FIGURES: &[&str] = &["--fig", "--scale"];

    #[test]
    fn a_command_line_of_known_flags_passes() {
        for line in [
            "bin",
            "bin --fig 8",
            "bin --scale 0.03 --fig 14",
            "bin --scale",
        ] {
            assert_eq!(check_args(&args(line), FIGURES), Ok(()), "{line}");
        }
        assert_eq!(check_args(&args("bin"), &[]), Ok(()));
    }

    #[test]
    fn a_stray_argument_is_an_error_naming_it() {
        assert_eq!(
            check_args(&args("bin --fgi 8"), FIGURES),
            Err(String::from(
                "unknown argument \"--fgi\" (flags: --fig --scale)"
            ))
        );
        assert_eq!(
            check_args(&args("bin --scale0.03"), FIGURES),
            Err(String::from(
                "unknown argument \"--scale0.03\" (flags: --fig --scale)"
            ))
        );
        assert_eq!(
            check_args(&args("bin --fig 8 extra"), FIGURES),
            Err(String::from(
                "unknown argument \"extra\" (flags: --fig --scale)"
            ))
        );
        assert_eq!(
            check_args(&args("bin --help"), &[]),
            Err(String::from(
                "unexpected argument \"--help\": this binary takes none"
            ))
        );
    }

    #[test]
    fn a_flag_given_twice_is_an_error() {
        assert_eq!(
            check_args(&args("bin --fig 8 --fig 14"), FIGURES),
            Err(String::from("--fig given twice"))
        );
    }
}
