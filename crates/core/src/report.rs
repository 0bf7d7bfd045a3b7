//! Tabular figure data and CSV emission.
//!
//! A row holds two [`Key`]s and a value. A key is the sweep values its
//! label is made of, not the label: the text exists only while
//! [`FigureData::to_csv`] writes it.

use std::fmt::{self, Display, Formatter, Write as _};

use hhsim_arch::{CoreKind, Frequency};
use hhsim_energy::MetricKind;
use hhsim_hdfs::BlockSize;
use hhsim_workloads::AppId;

/// A series or x label, written by its `Display` (the examples below are
/// the bytes it writes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Key {
    /// A fixed label: `issue_width`, `Avg_Spec`, `WordCount`, `10GB`.
    Lit(&'static str),
    /// A cache level's size row of Table 1: `L1d_kb`.
    Kb(&'static str),
    /// A machine: `Xeon`.
    Kind(CoreKind),
    /// An application on a machine, or one part of its execution time
    /// there: `Xeon/WC`, `Xeon/WC map`.
    Run(CoreKind, AppId, Option<Phase>),
    /// A cost metric: `ED2AP`.
    Metric(MetricKind),
    /// A cost metric of an application: `EDP/WC`.
    Cost(MetricKind, AppId),
    /// Map slots per node of a machine: `Xeon/M2`.
    Mappers(CoreKind, usize),
    /// An application on that many cores of a machine: `WC/2A`.
    AppCores(AppId, usize, CoreKind),
    /// A cluster shape: `Xeon3`, `Mix1X2A`.
    Shape(Shape),
    /// A statistic of a cluster shape, per application and speculation
    /// mode where the figure has them: `T/Xeon3/WC/spec`, `EDP/Atom12`.
    Stat(Stat, Shape, Option<AppId>, Option<Mode>),
    /// A frequency: `1.6GHz`.
    Ghz(Frequency),
    /// An HDFS block size: `64MB`.
    Block(BlockSize),
    /// A block size at a frequency: `256MB@1.6GHz`.
    BlockAt(BlockSize, Frequency),
    /// A block size on a fabric of that ToR oversubscription: `64MB/4x`.
    BlockOver(BlockSize, f64),
    /// A rate as a multiple: `20x`.
    Times(f64),
    /// A rate to that many decimals: `0.03`, `4`.
    Fixed(f64, u8),
}

/// One part of an execution-time breakdown, or its total.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Map,
    Reduce,
    Others,
    Total,
}

/// With or without LATE-style speculative execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Spec,
    NoSpec,
}

/// A cluster of `big` Xeon and `little` Atom nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub big: usize,
    pub little: usize,
}

/// What the fault and fabric figures (Figs. 19–22) report of a cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stat {
    /// Makespan, and the ends of its confidence band.
    T,
    Tlo,
    Thi,
    /// Energy-delay product, and the ends of its confidence band.
    Edp,
    EdpLo,
    EdpHi,
    /// Share of seeds whose job failed.
    Pfail,
    /// Reduce and map phase times.
    Tred,
    Tmap,
    /// Shares of node-local, rack-local and off-rack map reads.
    Nl,
    Rl,
    Of,
}

impl Display for Key {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match *self {
            Key::Lit(s) => f.write_str(s),
            Key::Kb(level) => write!(f, "{level}_kb"),
            Key::Kind(kind) => write!(f, "{kind}"),
            Key::Run(kind, app, phase) => {
                write!(f, "{kind}/{app}")?;
                match phase {
                    Some(phase) => write!(f, " {phase}"),
                    None => Ok(()),
                }
            }
            Key::Metric(metric) => write!(f, "{metric}"),
            Key::Cost(metric, app) => write!(f, "{metric}/{app}"),
            Key::Mappers(kind, n) => write!(f, "{kind}/M{n}"),
            Key::AppCores(app, n, kind) => {
                let initial = match kind {
                    CoreKind::Big => 'X',
                    CoreKind::Little => 'A',
                };
                write!(f, "{app}/{n}{initial}")
            }
            Key::Shape(shape) => write!(f, "{shape}"),
            Key::Stat(stat, shape, app, mode) => {
                write!(f, "{stat}/{shape}")?;
                if let Some(app) = app {
                    write!(f, "/{app}")?;
                }
                match mode {
                    Some(mode) => write!(f, "/{mode}"),
                    None => Ok(()),
                }
            }
            Key::Ghz(freq) => write!(f, "{:.1}GHz", freq.ghz()),
            Key::Block(b) => write!(f, "{}MB", b.mib()),
            Key::BlockAt(b, freq) => write!(f, "{}MB@{:.1}GHz", b.mib(), freq.ghz()),
            Key::BlockOver(b, over) => write!(f, "{}MB/{over}x", b.mib()),
            Key::Times(rate) => write!(f, "{rate:.0}x"),
            Key::Fixed(rate, digits) => write!(f, "{rate:.*}", usize::from(digits)),
        }
    }
}

impl Display for Phase {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Map => "map",
            Phase::Reduce => "reduce",
            Phase::Others => "others",
            Phase::Total => "total",
        })
    }
}

impl Display for Mode {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mode::Spec => "spec",
            Mode::NoSpec => "nospec",
        })
    }
}

impl Display for Shape {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        match (self.big, self.little) {
            (big, 0) => write!(f, "Xeon{big}"),
            (0, little) => write!(f, "Atom{little}"),
            (big, little) => write!(f, "Mix{big}X{little}A"),
        }
    }
}

impl Display for Stat {
    fn fmt(&self, f: &mut Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Stat::T => "T",
            Stat::Tlo => "Tlo",
            Stat::Thi => "Thi",
            Stat::Edp => "EDP",
            Stat::EdpLo => "EDPlo",
            Stat::EdpHi => "EDPhi",
            Stat::Pfail => "Pfail",
            Stat::Tred => "Tred",
            Stat::Tmap => "Tmap",
            Stat::Nl => "NL",
            Stat::Rl => "RL",
            Stat::Of => "OF",
        })
    }
}

impl From<&'static str> for Key {
    fn from(s: &'static str) -> Self {
        Key::Lit(s)
    }
}

/// One data point of a figure: a series, an x coordinate and a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Row {
    /// Series (e.g. `Atom/WC` or `EDP/Xeon12`).
    pub series: Key,
    /// X coordinate (e.g. `256MB@1.6GHz` or `10GB`).
    pub x: Key,
    /// Measured value.
    pub value: f64,
}

// The largest tables (fig17 and table3, 192 rows) are held whole while
// they render, so a row's size is live memory: two keys and a value in
// 56 bytes.
const _: () = assert!(std::mem::size_of::<Row>() <= 56);

/// A figure or table as an ordered list of rows, ready for CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureData {
    /// Identifier ("fig3", "table3", ...).
    pub id: &'static str,
    /// Human title.
    pub title: &'static str,
    /// Column label of `value`.
    pub value_label: &'static str,
    /// The data.
    pub rows: Vec<Row>,
}

impl FigureData {
    /// Creates an empty figure with room for `rows` rows.
    pub fn new(
        id: &'static str,
        title: &'static str,
        value_label: &'static str,
        rows: usize,
    ) -> Self {
        FigureData {
            id,
            title,
            value_label,
            rows: Vec::with_capacity(rows),
        }
    }

    /// Appends one point.
    pub fn push(&mut self, series: impl Into<Key>, x: impl Into<Key>, value: f64) {
        self.rows.push(Row {
            series: series.into(),
            x: x.into(),
            value,
        });
    }

    /// Value at (series, x), if present.
    pub fn value(&self, series: impl Into<Key>, x: impl Into<Key>) -> Option<f64> {
        let (series, x) = (series.into(), x.into());
        self.rows
            .iter()
            .find(|r| r.series == series && r.x == x)
            .map(|r| r.value)
    }

    /// Renders as CSV (`series,x,value` with a header), every label and
    /// value written in place into the one buffer.
    pub fn to_csv(&self) -> String {
        // A row runs to about 30 bytes; the rare longer table grows once.
        let header = self.id.len() + self.title.len() + self.value_label.len() + 16;
        let mut out = String::with_capacity(header + 40 * self.rows.len());
        // Writing into a `String` cannot fail.
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = writeln!(out, "series,x,{}", self.value_label);
        for r in &self.rows {
            let _ = writeln!(out, "{},{},{:.6}", r.series, r.x, r.value);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_query() {
        let (atom, xeon) = (Key::Kind(CoreKind::Little), Key::Kind(CoreKind::Big));
        let [b32, b64] = [BlockSize::MB_32, BlockSize::MB_64].map(Key::Block);
        let mut f = FigureData::new("figX", "test", "seconds", 3);
        f.push(atom, b32, 10.0);
        f.push(atom, b64, 8.0);
        f.push(xeon, b32, 5.0);
        assert_eq!(f.value(xeon, b32), Some(5.0));
        assert_eq!(f.value(xeon, b64), None);
        assert_eq!(f.value("Xeon", b32), None, "keys, not text");
    }

    #[test]
    fn csv_shape() {
        let mut f = FigureData::new("fig1", "IPC", "ipc", 1);
        f.push(Key::Kind(CoreKind::Big), "SPEC", 1.5);
        let csv = f.to_csv();
        assert!(csv.starts_with("# fig1"));
        assert!(csv.contains("series,x,ipc"));
        assert!(csv.contains("Xeon,SPEC,1.5"));
        assert_eq!(csv.lines().count(), 3);
    }

    #[test]
    fn keys_write_their_labels() {
        use AppId::{TeraSort, WordCount};
        use CoreKind::{Big, Little};
        let (xeon3, mix) = (Shape { big: 3, little: 0 }, Shape { big: 4, little: 8 });
        let freq = Frequency::GHZ_1_6;
        for (key, text) in [
            (Key::Lit("issue_width"), "issue_width"),
            (Key::Kb("L1d"), "L1d_kb"),
            (Key::Kind(Little), "Atom"),
            (Key::Run(Big, WordCount, None), "Xeon/WC"),
            (
                Key::Run(Little, TeraSort, Some(Phase::Others)),
                "Atom/TS others",
            ),
            (Key::Metric(MetricKind::Ed2ap), "ED2AP"),
            (Key::Cost(MetricKind::Edp, WordCount), "EDP/WC"),
            (Key::Mappers(Big, 2), "Xeon/M2"),
            (Key::AppCores(WordCount, 2, Little), "WC/2A"),
            (Key::AppCores(TeraSort, 8, Big), "TS/8X"),
            (Key::Shape(xeon3), "Xeon3"),
            (Key::Shape(Shape { big: 0, little: 12 }), "Atom12"),
            (Key::Shape(Shape { big: 1, little: 2 }), "Mix1X2A"),
            (
                Key::Stat(Stat::T, xeon3, Some(WordCount), Some(Mode::NoSpec)),
                "T/Xeon3/WC/nospec",
            ),
            (
                Key::Stat(Stat::EdpLo, mix, Some(TeraSort), None),
                "EDPlo/Mix4X8A/TS",
            ),
            (
                Key::Stat(Stat::Pfail, mix, None, Some(Mode::Spec)),
                "Pfail/Mix4X8A/spec",
            ),
            (Key::Stat(Stat::Of, mix, None, None), "OF/Mix4X8A"),
            (Key::Ghz(freq), "1.6GHz"),
            (Key::Block(BlockSize::MB_512), "512MB"),
            (Key::BlockAt(BlockSize::MB_256, freq), "256MB@1.6GHz"),
            (Key::BlockOver(BlockSize::MB_64, 16.0), "64MB/16x"),
            (Key::Times(20.0), "20x"),
            (Key::Fixed(0.03, 2), "0.03"),
            (Key::Fixed(4.0, 0), "4"),
        ] {
            assert_eq!(key.to_string(), text);
        }
    }
}
