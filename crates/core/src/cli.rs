//! One flag table per command, and the one parser every binary in this
//! crate runs over it.
//!
//! A [`Command`] is a summary and a `&[Flag]` table. Each row is the
//! flag's only declaration — name, value placeholder and type (none for
//! a switch), default, help, the flags it `needs` (any one of) and the
//! flags it `excludes` — and parsing, the `--help` text and every
//! cross-flag rule derive from the table alone, so a flag the chosen
//! mode never reads is an error naming both flags instead of a silent
//! no-op. A row named `<like-this>` is a required positional argument.
//! Every binary exits alike: `--help` 0, usage error 2, run failure 1.
//!
//! [`ExpArgs`] is the table the `exp_*` binaries share: `--vps N`
//! (default per binary), `--seed S` (default 2017), `--full`
//! (paper-scale, ~8,700 VPs) and, for the binaries with raw series to
//! write, `--dump DIR` (raw TSV series).

use std::collections::HashMap;
use std::fmt::Display;
use std::str::FromStr;

/// Width the usage text wraps at.
const WIDTH: usize = 78;

/// One row of a command's flag table.
#[derive(Debug)]
pub struct Flag {
    name: &'static str,
    /// Value placeholder (`N`, `A:P`); `None` for a switch or positional.
    value: Option<&'static str>,
    /// Checks a value against the row's type.
    check: fn(&str) -> Result<(), String>,
    default: Option<&'static str>,
    required: bool,
    help: &'static str,
    needs: &'static [&'static str],
    excludes: &'static [&'static str],
}

fn check<T: FromStr<Err: Display>>(value: &str) -> Result<(), String> {
    value.parse::<T>().map(drop).map_err(|e| e.to_string())
}

impl Flag {
    /// A switch: given or not.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        let (value, default, required, needs, excludes) = (None, None, false, &[], &[]);
        Flag { name, value, check: check::<String>, default, required, help, needs, excludes }
    }

    /// A flag taking one `T`, shown as `placeholder`.
    pub const fn value<T: FromStr<Err: Display>>(
        name: &'static str,
        placeholder: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag { value: Some(placeholder), check: check::<T>, ..Flag::switch(name, help) }
    }

    /// A positional `T`, named `<like-this>`, always required.
    pub const fn positional<T: FromStr<Err: Display>>(
        name: &'static str,
        help: &'static str,
    ) -> Flag {
        Flag { check: check::<T>, required: true, ..Flag::switch(name, help) }
    }

    /// The value read when the flag is not given.
    pub const fn default(self, value: &'static str) -> Flag {
        Flag { default: Some(value), ..self }
    }

    /// The flag must be given.
    pub const fn required(self) -> Flag {
        Flag { required: true, ..self }
    }

    /// Given this flag, at least one of `any_of` must be given too.
    pub const fn needs(self, any_of: &'static [&'static str]) -> Flag {
        Flag { needs: any_of, ..self }
    }

    /// Given this flag, none of `flags` may be.
    pub const fn excludes(self, flags: &'static [&'static str]) -> Flag {
        Flag { excludes: flags, ..self }
    }

    fn is_positional(&self) -> bool {
        self.name.starts_with('<')
    }

    /// The help text with the default and the rules appended.
    fn describe(&self) -> String {
        let mut text = self.help.to_string();
        if let Some(default) = self.default {
            text += &format!(" (default {default})");
        }
        if self.required {
            text += " (required)";
        }
        if !self.needs.is_empty() {
            text += &format!("; needs {}", self.needs.join(" or "));
        }
        if !self.excludes.is_empty() {
            text += &format!("; excludes {}", self.excludes.join(", "));
        }
        text
    }
}

/// A command: what it does, and one row per flag.
#[derive(Debug)]
pub struct Command {
    /// What the command does.
    pub about: &'static str,
    /// The flag table.
    pub flags: &'static [Flag],
}

/// Why [`Command::parse`] returned no [`Opts`]: `--help` (code 0, usage
/// text for stdout) or a usage error (code 2, a message naming the
/// flags, for stderr).
#[derive(Debug)]
pub struct Stop {
    /// The exit code.
    pub code: i32,
    /// The usage text or the error message.
    pub text: String,
}

impl Stop {
    /// Prints the text where its code says and exits with that code.
    pub fn exit(self) -> ! {
        if self.code == 0 {
            print!("{}", self.text);
        } else {
            eprintln!("{}", self.text);
        }
        std::process::exit(self.code)
    }
}

impl Command {
    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// The `--help` text of `prog`: one entry per row, with its default
    /// and rules.
    fn usage(&self, prog: &str) -> String {
        let positionals = self.flags.iter().filter(|f| f.is_positional());
        let positionals: String = positionals.map(|f| format!(" {}", f.name)).collect();
        let mut out = format!("usage: {prog}{positionals} [options]\n{}\n\n", wrap(self.about, 0));
        for f in self.flags {
            let lhs = f.value.map_or(f.name.to_string(), |v| format!("{} {v}", f.name));
            out += &format!("  {lhs:<20} {}\n", wrap(&f.describe(), 23));
        }
        out
    }

    /// Parses `args` — the arguments after the command — for `prog`.
    pub fn parse(
        &'static self,
        prog: &str,
        args: impl IntoIterator<Item = String>,
    ) -> Result<Opts, Stop> {
        debug_assert!(self.is_consistent(), "{prog}: the flag table contradicts itself");
        let usage = |e: String| Stop { code: 2, text: format!("{prog}: {e}; see `{prog} --help`") };
        let mut given = HashMap::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop { code: 0, text: self.usage(prog) });
            }
            // A flag by name, else the next unfilled positional.
            let flag = match self.flag(&arg) {
                Some(f) if !f.is_positional() => Some(f),
                Some(_) => None,
                None if arg.starts_with('-') => None,
                None => {
                    self.flags.iter().find(|f| f.is_positional() && !given.contains_key(f.name))
                }
            };
            let Some(flag) = flag else {
                return Err(usage(format!("unknown argument {arg}")));
            };
            let value = match flag.value {
                Some(v) => args.next().ok_or_else(|| usage(format!("{arg} needs a value ({v})")))?,
                None if flag.is_positional() => arg,
                None => String::new(),
            };
            (flag.check)(&value).map_err(|e| usage(format!("{} {value:?}: {e}", flag.name)))?;
            given.insert(flag.name, value);
        }
        let opts = Opts { cmd: self, given };
        for flag in self.flags.iter().filter(|f| opts.has(f.name) || f.required) {
            if !opts.has(flag.name) {
                return Err(usage(format!("{} is required", flag.name)));
            }
            if !flag.needs.is_empty() && !flag.needs.iter().any(|n| opts.has(n)) {
                return Err(usage(format!("{} needs {}", flag.name, flag.needs.join(" or "))));
            }
            if let Some(other) = flag.excludes.iter().find(|x| opts.has(x)) {
                return Err(usage(format!("{} cannot be combined with {other}", flag.name)));
            }
        }
        Ok(opts)
    }

    /// [`Command::parse`], exiting on `--help` (0) or a usage error (2).
    pub fn parse_or_exit(&'static self, prog: &str, args: impl IntoIterator<Item = String>) -> Opts
    {
        self.parse(prog, args).unwrap_or_else(|stop| stop.exit())
    }

    /// Every row named once, every rule naming a row of this table,
    /// every default of its row's type.
    fn is_consistent(&self) -> bool {
        self.flags.iter().enumerate().all(|(i, f)| {
            self.flags[..i].iter().all(|g| g.name != f.name)
                && f.needs.iter().chain(f.excludes).all(|n| self.flag(n).is_some())
                && f.default.is_none_or(|d| (f.check)(d).is_ok())
        })
    }
}

/// A parsed command line, read back typed. Reading a name that is not
/// in the command's table is a bug and panics.
#[derive(Debug)]
pub struct Opts {
    cmd: &'static Command,
    given: HashMap<&'static str, String>,
}

impl Opts {
    fn flag(&self, name: &str) -> &'static Flag {
        self.cmd.flag(name).unwrap_or_else(|| panic!("{name} is not in this command's table"))
    }

    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.contains_key(self.flag(name).name)
    }

    /// `name`'s value if given, else its default, else `None`.
    pub fn opt<T: FromStr>(&self, name: &str) -> Option<T> {
        let raw = self.given.get(name).map(String::as_str).or(self.flag(name).default)?;
        Some(raw.parse().unwrap_or_else(|_| panic!("{name} is read as another type than its row")))
    }

    /// `name`'s value if given, else its default.
    pub fn get<T: FromStr>(&self, name: &str) -> T {
        self.opt(name).unwrap_or_else(|| panic!("{name} has no default"))
    }

    /// Every flag given.
    pub fn given(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.given.keys().copied()
    }
}

/// Greedy word wrap of `text` for a column starting at `indent`.
pub fn wrap(text: &str, indent: usize) -> String {
    let mut lines = vec![String::new()];
    for word in text.split_whitespace() {
        let line = lines.last_mut().expect("never empty");
        if line.is_empty() {
            *line = word.to_string();
        } else if indent + line.len() + 1 + word.len() > WIDTH {
            lines.push(word.to_string());
        } else {
            *line += &format!(" {word}");
        }
    }
    lines.join(&format!("\n{}", " ".repeat(indent)))
}

/// Parsed common options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpArgs {
    /// Vantage points per measurement.
    pub vps: usize,
    /// Seed.
    pub seed: u64,
    /// Whether `--full` was passed.
    pub full: bool,
    /// Directory for raw TSV dumps (`--dump DIR`).
    pub dump: Option<String>,
}

/// Vantage points of the paper-scale population (`--full`).
const FULL_VPS: usize = 8_700;

const EXP_ABOUT: &str = "regenerate one of the paper's tables or figures in the simulator";

/// The `exp_*` rows; the last, `--dump`, only for a binary with raw
/// series to write.
const EXP_FLAGS: &[Flag] = &[
    Flag::value::<usize>("--vps", "N", "vantage points per measurement (default: per binary)"),
    Flag::value::<u64>("--seed", "S", "simulation seed").default("2017"),
    Flag::switch("--full", "paper-scale population (~8,700 VPs)").excludes(&["--vps"]),
    Flag::value::<String>("--dump", "DIR", "write raw TSV series to DIR"),
];

static EXP: Command = Command { about: EXP_ABOUT, flags: EXP_FLAGS };

/// [`EXP`] without its `--dump` row.
static EXP_WITHOUT_DUMP: Command =
    Command { about: EXP_ABOUT, flags: EXP_FLAGS.split_at(EXP_FLAGS.len() - 1).0 };

impl ExpArgs {
    /// Parses `std::env::args`, with `default_vps` used unless `--vps`
    /// or `--full` overrides it. Exits 0 with usage on `--help`, 2 on a
    /// usage error.
    pub fn parse(binary: &str, default_vps: usize) -> ExpArgs {
        Self::parse_from(binary, default_vps, std::env::args().skip(1))
    }

    /// [`ExpArgs::parse`] for a binary with no raw series to write: its
    /// table has no `--dump` row, so `--dump` is a usage error.
    pub fn parse_without_dump(binary: &str, default_vps: usize) -> ExpArgs {
        Self::read(&EXP_WITHOUT_DUMP, binary, default_vps, std::env::args().skip(1))
    }

    /// Testable core of [`ExpArgs::parse`].
    pub fn parse_from<I>(binary: &str, default_vps: usize, args: I) -> ExpArgs
    where
        I: IntoIterator<Item = String>,
    {
        Self::read(&EXP, binary, default_vps, args)
    }

    fn read(
        table: &'static Command,
        binary: &str,
        default_vps: usize,
        args: impl IntoIterator<Item = String>,
    ) -> ExpArgs {
        let o = table.parse_or_exit(binary, args);
        let full = o.has("--full");
        // Only a table with the row can have been given the flag.
        let dump = o.given().any(|flag| flag == "--dump").then(|| o.get("--dump"));
        ExpArgs {
            vps: if full { FULL_VPS } else { o.opt("--vps").unwrap_or(default_vps) },
            seed: o.get("--seed"),
            full,
            dump,
        }
    }

    /// Writes `tsv()` to `DIR/file` when `--dump DIR` was given.
    pub fn dump_tsv(&self, file: &str, tsv: impl FnOnce() -> String) {
        if let Some(dir) = &self.dump {
            crate::export::write_dump(dir, file, &tsv()).expect("dump writes");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ExpArgs {
        ExpArgs::parse_from("test", 1_000, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a, ExpArgs { vps: 1_000, seed: 2017, full: false, dump: None });
    }

    #[test]
    fn dump_dir_parsed() {
        let a = parse(&["--dump", "/tmp/out"]);
        assert_eq!(a.dump.as_deref(), Some("/tmp/out"));
    }

    #[test]
    fn overrides() {
        let a = parse(&["--vps", "50", "--seed", "7"]);
        assert_eq!(a.vps, 50);
        assert_eq!(a.seed, 7);
    }

    #[test]
    fn full_scale() {
        let a = parse(&["--full"]);
        assert!(a.full);
        assert_eq!(a.vps, 8_700);
    }

    static DEMO: Command = Command {
        about: "a demo",
        flags: &[
            Flag::positional::<String>("<trace>", "a trace file"),
            Flag::value::<u16>("--size", "N", "a size").default("512"),
            Flag::switch("--a", "mode a"),
            Flag::switch("--b", "mode b").excludes(&["--a"]),
            Flag::value::<f64>("--loss", "P", "a loss rate").needs(&["--a", "--b"]),
        ],
    };

    static REQUIRED: Command = Command {
        about: "a required flag",
        flags: &[Flag::value::<String>("--from", "PATH", "a source").required()],
    };

    fn demo(args: &[&str]) -> Result<Opts, Stop> {
        DEMO.parse("demo", args.iter().map(|s| s.to_string()))
    }

    /// The message of the usage error `args` must be.
    fn usage_error(args: &[&str]) -> String {
        match demo(args) {
            Err(Stop { code: 2, text }) => text,
            other => panic!("{args:?} parsed: {other:?}"),
        }
    }

    #[test]
    fn unset_flags_read_their_defaults() {
        let o = demo(&["t"]).unwrap();
        assert_eq!(o.get::<u16>("--size"), 512);
        assert_eq!(o.opt::<f64>("--loss"), None);
        assert!(!o.has("--a") && !o.has("--size"));
        assert_eq!(o.given().collect::<Vec<_>>(), ["<trace>"]);
        let o = demo(&["--size", "9", "t", "--a"]).unwrap();
        assert_eq!(o.get::<u16>("--size"), 9);
        assert!(o.has("--a"));
    }

    #[test]
    fn values_are_checked_against_the_rows_type() {
        assert!(usage_error(&["t", "--size", "70000"]).contains("--size \"70000\""));
        assert!(usage_error(&["t", "--loss", "x", "--a"]).contains("--loss \"x\""));
        assert!(usage_error(&["t", "--size"]).contains("--size needs a value (N)"));
        assert!(usage_error(&["t", "--bogus"]).contains("unknown argument --bogus"));
    }

    #[test]
    fn needs_is_any_of() {
        assert!(usage_error(&["t", "--loss", "0.1"]).contains("--loss needs --a or --b"));
        assert!(demo(&["t", "--loss", "0.1", "--a"]).is_ok());
        assert!(demo(&["t", "--loss", "0.1", "--b"]).is_ok());
    }

    #[test]
    fn excludes_names_both_flags_in_either_order() {
        for args in [["t", "--a", "--b"], ["t", "--b", "--a"]] {
            assert!(usage_error(&args).contains("--b cannot be combined with --a"));
        }
    }

    #[test]
    fn one_positional_argument_anywhere_and_required() {
        assert_eq!(demo(&["--a", "t"]).unwrap().get::<String>("<trace>"), "t");
        assert!(usage_error(&["--a"]).contains("<trace> is required"));
        assert!(usage_error(&["t", "u"]).contains("unknown argument u"));
        assert!(usage_error(&["<trace>", "t"]).contains("unknown argument <trace>"));
        let from = |args: &[&str]| REQUIRED.parse("r", args.iter().map(|s| s.to_string()));
        let required = from(&[]).map(drop).unwrap_err();
        assert!(required.code == 2 && required.text.contains("--from is required"));
        assert!(from(&["--from", "x"]).is_ok());
        assert!(matches!(from(&["x"]), Err(Stop { code: 2, text }) if text.contains("argument x")));
    }

    #[test]
    fn help_lists_every_row_with_default_and_rules() {
        let Err(Stop { code: 0, text }) = demo(&["--help", "--bogus"]) else { panic!("no help") };
        assert!(text.starts_with("usage: demo <trace> [options]\n"));
        for flag in DEMO.flags {
            assert!(text.contains(&format!("\n  {} ", flag.name)), "{}: {text}", flag.name);
        }
        for rule in ["(default 512)", "; needs --a or --b", "; excludes --a"] {
            assert!(text.contains(rule), "{rule}: {text}");
        }
        // Arguments are read in order: a bad one before `--help` wins.
        assert!(usage_error(&["--bogus", "--help"]).contains("--bogus"));
    }

    #[test]
    fn full_and_vps_contradict_each_other() {
        let args = ["--full", "--vps", "5"].map(String::from);
        let stop = EXP.parse("exp", args).map(drop).unwrap_err();
        assert!(stop.code == 2 && stop.text.contains("--full cannot be combined with --vps"));
    }

    /// `EXP_WITHOUT_DUMP` cuts the last row, so `--dump` must stay last.
    #[test]
    fn the_table_without_dump_drops_exactly_the_dump_row() {
        let names = |c: &Command| c.flags.iter().map(|f| f.name).collect::<Vec<_>>();
        let (mut with, without) = (names(&EXP), names(&EXP_WITHOUT_DUMP));
        assert_eq!(with.pop(), Some("--dump"));
        assert_eq!(with, without);
    }

    #[test]
    fn long_help_wraps_under_its_column() {
        let text = wrap(&"word ".repeat(40), 23);
        let mut lines = text.lines();
        assert!(lines.next().unwrap().len() + 23 <= WIDTH);
        for line in lines {
            assert!(line.len() <= WIDTH && line.starts_with(&" ".repeat(23)), "{line:?}");
        }
        assert_eq!(text.split_whitespace().count(), 40);
    }
}
