//! The experiment registry: one renderer per paper table and figure.
//!
//! Ids mirror the paper (`t2` = Table II, `f7` = Figure 7, …). Every
//! renderer consumes the generated trace and the precomputed
//! [`AnalysisReport`] and returns a self-describing text artifact —
//! tables as aligned text, figures as TSV series. The `repro` binary
//! walks this registry; `cargo bench` times the underlying computations.

use ddos_analytics::overview::intervals;
use ddos_analytics::source::prediction::MAX_EVAL_POINTS;
use ddos_analytics::target::organization::{widest_presence, OrgAnalysis};
use ddos_analytics::util::BotIndex;
use ddos_analytics::AnalysisReport;
use ddos_schema::{Family, Timestamp};
use ddos_sim::GeneratedTrace;

use crate::series::{render_blocks, Series};
use crate::table::Table;

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Registry id (`t2`, `f7`, …).
    pub id: &'static str,
    /// The paper artifact reproduced.
    pub title: &'static str,
    /// What the renderer emits.
    pub description: &'static str,
    render: fn(&GeneratedTrace, &AnalysisReport) -> String,
}

/// Renders one experiment by id.
pub fn render(id: &str, trace: &GeneratedTrace, report: &AnalysisReport) -> Option<String> {
    EXPERIMENTS
        .iter()
        .find(|e| e.id == id)
        .map(|e| (e.render)(trace, report))
}

/// All experiments, in paper order.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "t1",
        title: "Table I - workload schema",
        description: "field inventory of the DDoSattack schema",
        render: t1_schema,
    },
    Experiment {
        id: "t2",
        title: "Table II - protocol preferences of each botnet family",
        description: "attacks per (protocol, family)",
        render: t2_protocol_preferences,
    },
    Experiment {
        id: "t3",
        title: "Table III - summary of the workload information",
        description: "distinct-count summary, measured vs paper",
        render: t3_summary,
    },
    Experiment {
        id: "t4",
        title: "Table IV - geolocation distance prediction statistics",
        description: "ARIMA mean/std/cosine per family vs paper",
        render: t4_prediction,
    },
    Experiment {
        id: "t5",
        title: "Table V - country-level DDoS target statistics",
        description: "top-5 victim countries per family",
        render: t5_target_countries,
    },
    Experiment {
        id: "t6",
        title: "Table VI - botnets collaboration statistics",
        description: "intra-/inter-family collaboration pair counts",
        render: t6_collaboration,
    },
    Experiment {
        id: "f1",
        title: "Fig. 1 - popularity of attack types",
        description: "attacks per protocol",
        render: f1_protocols,
    },
    Experiment {
        id: "f2",
        title: "Fig. 2 - daily attack distribution",
        description: "attacks per day plus peak/mean stats",
        render: f2_daily,
    },
    Experiment {
        id: "f3",
        title: "Fig. 3 - attack interval CDF (all vs per-family basis)",
        description: "two interval CDFs",
        render: f3_interval_cdf,
    },
    Experiment {
        id: "f4",
        title: "Fig. 4 - attack interval distributions (clusters)",
        description: "non-simultaneous interval counts per duration band",
        render: f4_interval_bands,
    },
    Experiment {
        id: "f5",
        title: "Fig. 5 - per-family interval CDFs",
        description: "one interval CDF per active family",
        render: f5_family_cdfs,
    },
    Experiment {
        id: "f6",
        title: "Fig. 6 - attack durations over time",
        description: "(start, duration) scatter series + moments",
        render: f6_duration_scatter,
    },
    Experiment {
        id: "f7",
        title: "Fig. 7 - duration CDF",
        description: "duration CDF with the four-hour quantile",
        render: f7_duration_cdf,
    },
    Experiment {
        id: "f8",
        title: "Fig. 8 - weekly source shift patterns",
        description: "existing- vs new-country bot counts per week",
        render: f8_shifts,
    },
    Experiment {
        id: "f9",
        title: "Fig. 9 - geolocation dispersion CDFs",
        description: "dispersion CDF per qualifying family",
        render: f9_dispersion_cdfs,
    },
    Experiment {
        id: "f10",
        title: "Fig. 10 - Pandora dispersion histogram",
        description: "asymmetric dispersion histogram",
        render: |t, r| dispersion_histogram(t, r, Family::Pandora, 566.0, 0.767),
    },
    Experiment {
        id: "f11",
        title: "Fig. 11 - Blackenergy dispersion histogram",
        description: "asymmetric dispersion histogram",
        render: |t, r| dispersion_histogram(t, r, Family::Blackenergy, 4_304.0, 0.895),
    },
    Experiment {
        id: "f12",
        title: "Fig. 12 - Pandora dispersion prediction",
        description: "prediction vs truth histograms + error series",
        render: |t, r| prediction_figure(t, r, Family::Pandora),
    },
    Experiment {
        id: "f13",
        title: "Fig. 13 - Blackenergy dispersion prediction",
        description: "prediction vs truth histograms + error series",
        render: |t, r| prediction_figure(t, r, Family::Blackenergy),
    },
    Experiment {
        id: "f14",
        title: "Fig. 14 - Pandora organization-level target map",
        description: "per-organization markers (lat, lon, attacks)",
        render: f14_org_map,
    },
    Experiment {
        id: "f15",
        title: "Fig. 15 - Dirtjumper intra-family collaborations",
        description: "(botnet, date, magnitude) triples + event stats",
        render: f15_intra_collabs,
    },
    Experiment {
        id: "f16",
        title: "Fig. 16 - Dirtjumper x Pandora collaborations",
        description: "per-event durations and magnitudes over time",
        render: f16_flagship_pair,
    },
    Experiment {
        id: "f17",
        title: "Fig. 17 - consecutive-attack interval CDF",
        description: "chain gap CDF",
        render: f17_chain_gaps,
    },
    Experiment {
        id: "f18",
        title: "Fig. 18 - consecutive attacks over time",
        description: "(start, target, family, magnitude) of chained attacks",
        render: f18_chain_timeline,
    },
    // ----- extensions beyond the paper's printed artifacts -----
    Experiment {
        id: "x1",
        title: "Ext. 1 - family activity levels (§III-A, quantified)",
        description: "active days, duty cycle, attacks per active day",
        render: x1_activity,
    },
    Experiment {
        id: "x2",
        title: "Ext. 2 - next-attack start-time prediction (abstract finding 2)",
        description: "per-target recurrence trains and leave-last-out errors",
        render: x2_recurrence,
    },
    Experiment {
        id: "x3",
        title: "Ext. 3 - blacklist warm-up simulation (§V summary insight)",
        description: "repeat-attack source coverage by a per-victim blacklist",
        render: x3_blacklist,
    },
    Experiment {
        id: "x4",
        title: "Ext. 4 - detection-latency sweep (§III-D insight)",
        description: "mitigable attack-time vs detection latency",
        render: x4_latency,
    },
    Experiment {
        id: "x5",
        title: "Ext. 5 - country-prioritized takedown (§IV-B insight)",
        description: "cumulative attack participation removed per disinfected country",
        render: x5_takedown,
    },
];

// --------------------------------------------------------------- tables

fn t1_schema(_t: &GeneratedTrace, _r: &AnalysisReport) -> String {
    let mut t = Table::new(
        "Table I - information of workload entries",
        &["field", "description"],
    );
    for (f, d) in [
        ("ddos_id", "global unique identifier of the attack"),
        ("botnet_id", "unique identification of each botnet"),
        ("category", "nature (transport) of the attack"),
        ("target_ip", "IP address of the victim host"),
        ("timestamp", "attack start time"),
        ("end_time", "attack end time"),
        ("botnet_ip", "addresses of the bots involved"),
        ("asn", "autonomous system number"),
        ("cc", "target country (ISO 3166-1 alpha-2)"),
        ("city", "target city"),
        ("latitude/longitude", "target coordinates"),
    ] {
        t.row(&[f, d]);
    }
    t.render()
}

fn t2_protocol_preferences(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let mut t = Table::new(
        "Table II - protocol preferences of each botnet family",
        &["protocol", "family", "attacks"],
    );
    for row in &r.protocol_rows {
        t.row(&[
            row.protocol.name().to_string(),
            row.family.to_string(),
            row.attacks.to_string(),
        ]);
    }
    t.render()
}

fn t3_summary(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let m = &r.summary.measured;
    let p = &r.summary.paper;
    let mut t = Table::new(
        "Table III - summary of the workload information",
        &["description", "measured", "paper"],
    );
    t.row(&[
        "attacker ips".to_string(),
        m.attackers.ips.to_string(),
        p.attackers.0.to_string(),
    ]);
    t.row(&[
        "attacker cities".to_string(),
        m.attackers.cities.to_string(),
        p.attackers.1.to_string(),
    ]);
    t.row(&[
        "attacker countries".to_string(),
        m.attackers.countries.to_string(),
        p.attackers.2.to_string(),
    ]);
    t.row(&[
        "attacker orgs".to_string(),
        m.attackers.organizations.to_string(),
        p.attackers.3.to_string(),
    ]);
    t.row(&[
        "attacker asns".to_string(),
        m.attackers.asns.to_string(),
        p.attackers.4.to_string(),
    ]);
    t.row(&[
        "victim ips".to_string(),
        m.victims.ips.to_string(),
        p.victims.0.to_string(),
    ]);
    t.row(&[
        "victim cities".to_string(),
        m.victims.cities.to_string(),
        p.victims.1.to_string(),
    ]);
    t.row(&[
        "victim countries".to_string(),
        m.victims.countries.to_string(),
        p.victims.2.to_string(),
    ]);
    t.row(&[
        "victim orgs".to_string(),
        m.victims.organizations.to_string(),
        p.victims.3.to_string(),
    ]);
    t.row(&[
        "victim asns".to_string(),
        m.victims.asns.to_string(),
        p.victims.4.to_string(),
    ]);
    t.row(&[
        "attacks (ddos_id)".to_string(),
        m.attacks.to_string(),
        p.attacks.to_string(),
    ]);
    t.row(&[
        "botnet_id (attacking)".to_string(),
        m.botnets.to_string(),
        p.botnets.to_string(),
    ]);
    t.row(&[
        "traffic types".to_string(),
        m.traffic_types.to_string(),
        p.traffic_types.to_string(),
    ]);
    t.render()
}

/// The paper's Table IV reference rows: (family, mean, std, similarity).
pub const PAPER_TABLE_IV: &[(Family, f64, f64, f64)] = &[
    (Family::Blackenergy, 3_970.6, 2_294.4, 0.960),
    (Family::Pandora, 569.2, 1_842.5, 0.946),
    (Family::Dirtjumper, 1_229.1, 1_033.7, 0.848),
    (Family::Optima, 3_545.8, 1_717.8, 0.941),
    (Family::Colddeath, 341.6, 933.8, 0.809),
];

fn t4_prediction(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let mut t = Table::new(
        "Table IV - geolocation distance prediction statistics",
        &[
            "family",
            "group",
            "mean",
            "std",
            "similarity",
            "paper mean",
            "paper similarity",
        ],
    );
    for row in &r.prediction.rows {
        let e = &row.forecast.eval;
        let paper = PAPER_TABLE_IV.iter().find(|&&(f, ..)| f == row.family);
        let (pm, ps) = paper.map_or((f64::NAN, f64::NAN), |&(_, m, _, s)| (m, s));
        t.row(&[
            row.family.to_string(),
            "prediction".to_string(),
            format!("{:.1}", e.pred_mean),
            format!("{:.1}", e.pred_std),
            format!("{:.3}", e.cosine),
            format!("{pm:.1}"),
            format!("{ps:.3}"),
        ]);
        t.row(&[
            String::new(),
            "ground truth".to_string(),
            format!("{:.1}", e.truth_mean),
            format!("{:.1}", e.truth_std),
            String::new(),
            String::new(),
            String::new(),
        ]);
    }
    let mut out = t.render();
    for row in &r.prediction.rows {
        if let Some(lb) = ddos_stats::timeseries::diagnostics::ljung_box(
            &row.forecast.errors,
            20,
            row.spec.num_params(),
        ) {
            out.push_str(&format!(
                "# {} residual whiteness (Ljung-Box, 20 lags): Q={:.1}, p={:.3} -> {}\n",
                row.family,
                lb.statistic,
                lb.p_value,
                if lb.is_white(0.05) {
                    "white (model captured the structure)"
                } else {
                    "residual structure remains"
                }
            ));
        }
    }
    if !r.prediction.excluded.is_empty() {
        out.push_str("\nexcluded: ");
        let ex: Vec<String> = r
            .prediction
            .excluded
            .iter()
            .map(|(f, why)| format!("{f} ({why:?})"))
            .collect();
        out.push_str(&ex.join(", "));
        out.push('\n');
    }
    out
}

fn t5_target_countries(trace: &GeneratedTrace, r: &AnalysisReport) -> String {
    let mut t = Table::new(
        "Table V - country-level DDoS target statistics",
        &["family", "countries", "top 5", "count"],
    );
    for profile in &r.target_countries {
        for (i, &(cc, n)) in profile.top(5).iter().enumerate() {
            t.row(&[
                if i == 0 {
                    profile.family.to_string()
                } else {
                    String::new()
                },
                if i == 0 {
                    profile.countries.to_string()
                } else {
                    String::new()
                },
                cc.to_string(),
                n.to_string(),
            ]);
        }
    }
    let mut out = t.render();
    out.push_str("\noverall top victim countries: ");
    let top: Vec<String> = r
        .overall_targets
        .iter()
        .map(|(cc, n)| format!("{cc}={n}"))
        .collect();
    out.push_str(&top.join(", "));
    out.push('\n');
    let asn = ddos_analytics::target::asn::AsnAnalysis::compute(&trace.dataset, None);
    out.push_str(&format!(
        "# victim ASes: {} distinct (paper 1260); top-10 hold {:.0}% of attacks; {} contested by 2+ families\n",
        asn.distinct_asns(),
        asn.top_k_share(10) * 100.0,
        asn.contested().count()
    ));
    out
}

/// The paper's Table VI reference rows.
pub const PAPER_TABLE_VI: &[(Family, u32, u32)] = &[
    (Family::Blackenergy, 0, 1),
    (Family::Colddeath, 0, 1),
    (Family::Darkshell, 253, 0),
    (Family::Ddoser, 134, 0),
    (Family::Dirtjumper, 756, 121),
    (Family::Nitol, 17, 0),
    (Family::Optima, 1, 1),
    (Family::Pandora, 10, 118),
    (Family::Yzf, 66, 0),
];

fn t6_collaboration(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let mut t = Table::new(
        "Table VI - botnets collaboration statistics (qualifying pairs)",
        &[
            "family",
            "intra-family",
            "inter-family",
            "paper intra",
            "paper inter",
        ],
    );
    for &(family, paper_intra, paper_inter) in PAPER_TABLE_VI {
        let intra = r
            .collaborations
            .intra_pairs
            .get(&family)
            .copied()
            .unwrap_or(0);
        let inter = r
            .collaborations
            .inter_pairs
            .get(&family)
            .copied()
            .unwrap_or(0);
        t.row(&[
            family.to_string(),
            intra.to_string(),
            inter.to_string(),
            paper_intra.to_string(),
            paper_inter.to_string(),
        ]);
    }
    t.render()
}

// --------------------------------------------------------------- figures

fn f1_protocols(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let mut t = Table::new(
        "Fig. 1 - popularity of attack types",
        &["protocol", "attacks"],
    );
    for &(p, n) in &r.protocols.counts {
        t.row(&[p.name().to_string(), n.to_string()]);
    }
    let mut out = t.render();
    out.push_str(&format!(
        "\nconnection-oriented fraction: {:.3}\n",
        r.protocols.connection_oriented_fraction()
    ));
    out
}

fn f2_daily(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let values: Vec<f64> = r.daily.counts.iter().map(|&c| c as f64).collect();
    let series = Series::from_values("attacks_per_day", &values);
    let mut out = series.render();
    if let Some((day, peak)) = r.daily.peak() {
        out.push_str(&format!(
            "# mean/day {:.1} (paper 243); peak {} on day {} = {} (paper 983 on 2012-08-30)\n",
            r.daily.mean_per_day(),
            peak,
            day,
            r.daily.date_of(day)
        ));
    }
    out
}

fn f3_interval_cdf(t: &GeneratedTrace, _r: &AnalysisReport) -> String {
    let all = intervals::all_intervals(&t.dataset);
    let mut family_based: Vec<i64> = Vec::new();
    for f in Family::ACTIVE {
        family_based.extend(intervals::family_intervals(&t.dataset, f));
    }
    let mut blocks = Vec::new();
    for (name, sample) in [("all_attacks", &all), ("family_based", &family_based)] {
        if let Some(cdf) = intervals::interval_cdf(sample) {
            blocks.push(Series::new(name, cdf.points()).downsample(400));
        }
    }
    let mut out = render_blocks(&blocks);
    if let Some(stats) = intervals::IntervalStats::compute(&family_based) {
        out.push_str(&format!(
            "# family-based: concurrent {:.3} (paper >0.5), mean {:.0}s (paper 3060), p80 {:.0}s (paper 1081), max {:.0}s\n",
            stats.concurrent_fraction, stats.mean, stats.p80, stats.max
        ));
    }
    out
}

fn f4_interval_bands(t: &GeneratedTrace, _r: &AnalysisReport) -> String {
    let mut table = Table::new(
        "Fig. 4 - interval clusters per family (simultaneous excluded)",
        &["family", "band", "intervals"],
    );
    for f in Family::ACTIVE {
        let ivs = intervals::family_intervals(&t.dataset, f);
        for (name, n) in intervals::interval_bands(&ivs) {
            if n > 0 {
                table.row(&[f.to_string(), name.to_string(), n.to_string()]);
            }
        }
    }
    table.render()
}

fn f5_family_cdfs(t: &GeneratedTrace, _r: &AnalysisReport) -> String {
    let mut blocks = Vec::new();
    for f in Family::ACTIVE {
        let ivs = intervals::family_intervals(&t.dataset, f);
        if let Some(cdf) = intervals::interval_cdf(&ivs) {
            blocks.push(Series::new(f.name(), cdf.points()).downsample(200));
        }
    }
    render_blocks(&blocks)
}

fn f6_duration_scatter(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let Some(d) = &r.durations else {
        return String::from("# no attacks\n");
    };
    let pts: Vec<(f64, f64)> = d
        .series
        .iter()
        .map(|&(start, dur)| (start.unix() as f64, dur))
        .collect();
    let mut out = Series::new("duration_s", pts).downsample(1_000).render();
    out.push_str(&format!(
        "# mean {:.0}s (paper 10308), median {:.0}s (paper 1766), std {:.0}s (paper 18475)\n",
        d.mean, d.median, d.std_dev
    ));
    out
}

fn f7_duration_cdf(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let Some(d) = &r.durations else {
        return String::from("# no attacks\n");
    };
    let cdf = d.cdf();
    let mut out = Series::new("duration_cdf", cdf.points())
        .downsample(400)
        .render();
    out.push_str(&format!(
        "# p80 {:.0}s (paper 13882 ~ 4h); under 60s {:.3} (paper <0.10)\n",
        d.p80,
        d.fraction_under(60.0)
    ));
    // Fig. 6's "wide-spread" claim, made testable: MLE log-normal fit
    // plus a KS check of how far the body deviates.
    let durations: Vec<f64> = d.series.iter().map(|&(_, v)| v).collect();
    if let Some(fitted) = ddos_stats::fit::fit_lognormal(&durations) {
        out.push_str(&format!(
            "# log-normal MLE: median {:.0}s, sigma {:.2}",
            fitted.mu.exp(),
            fitted.sigma
        ));
        if let Some(ks) =
            ddos_stats::fit::ks_test(&durations, |x| ddos_stats::fit::lognormal_cdf(&fitted, x))
        {
            out.push_str(&format!("; KS D={:.3} (n={})", ks.statistic, ks.n));
        }
        out.push('\n');
    }
    out
}

fn f8_shifts(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let existing: Vec<f64> = r
        .shifts
        .weeks
        .iter()
        .map(|w| w.existing_country_bots as f64)
        .collect();
    let fresh: Vec<f64> = r
        .shifts
        .weeks
        .iter()
        .map(|w| w.new_country_bots as f64)
        .collect();
    let mut out = render_blocks(&[
        Series::from_values("existing_country_bots", &existing),
        Series::from_values("new_country_bots", &fresh),
    ]);
    if let Some(ratio) = r.shifts.regionalization_ratio() {
        out.push_str(&format!(
            "# regionalization ratio {ratio:.1} (paper: existing on 1e4 axis vs new on 1e3 axis)\n"
        ));
    }
    out
}

fn f9_dispersion_cdfs(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let mut blocks = Vec::new();
    let mut notes = String::new();
    for fd in &r.dispersion {
        if let Some(cdf) = fd.cdf() {
            blocks.push(Series::new(fd.family.name(), cdf.points()).downsample(300));
        }
        notes.push_str(&format!(
            "# {}: symmetric {:.3}, asymmetric mean {:.0} km, n {}\n",
            fd.family,
            fd.symmetric_fraction(),
            fd.asymmetric_mean().unwrap_or(0.0),
            fd.series.len()
        ));
    }
    let mut out = render_blocks(&blocks);
    out.push_str(&notes);
    out
}

fn dispersion_histogram(
    _t: &GeneratedTrace,
    r: &AnalysisReport,
    family: Family,
    paper_mean: f64,
    paper_symmetric: f64,
) -> String {
    let Some(fd) = r.dispersion.iter().find(|fd| fd.family == family) else {
        return format!("# {family} does not qualify for Fig. 9\n");
    };
    let Some(hist) = fd.asymmetric_histogram(40) else {
        return String::from("# no asymmetric snapshots\n");
    };
    let pts: Vec<(f64, f64)> = hist
        .centers()
        .into_iter()
        .map(|(c, n)| (c, n as f64))
        .collect();
    let mut out = Series::new(format!("{family}_dispersion_km"), pts).render();
    out.push_str(&format!(
        "# symmetric fraction {:.3} (paper {paper_symmetric}); asymmetric mean {:.0} km (paper {paper_mean})\n",
        fd.symmetric_fraction(),
        fd.asymmetric_mean().unwrap_or(0.0),
    ));
    out
}

fn prediction_figure(_t: &GeneratedTrace, r: &AnalysisReport, family: Family) -> String {
    let Some(row) = r.prediction.row(family) else {
        return format!("# {family} excluded from prediction (see t4)\n");
    };
    let f = &row.forecast;
    let mut blocks = vec![
        Series::from_values("prediction", &f.predictions).downsample(500),
        Series::from_values("ground_truth", &f.truth).downsample(500),
        Series::from_values("error", &f.errors).downsample(500),
    ];
    // Histogram comparison (the figures' top panels).
    let max = f
        .truth
        .iter()
        .chain(&f.predictions)
        .cloned()
        .fold(0.0f64, f64::max);
    if max > 0.0 {
        if let (Some(hp), Some(ht)) = (
            ddos_stats::Histogram::linear(&f.predictions, 0.0, max, 30),
            ddos_stats::Histogram::linear(&f.truth, 0.0, max, 30),
        ) {
            blocks.push(Series::new(
                "prediction_hist",
                hp.centers()
                    .into_iter()
                    .map(|(c, n)| (c, n as f64))
                    .collect(),
            ));
            blocks.push(Series::new(
                "truth_hist",
                ht.centers()
                    .into_iter()
                    .map(|(c, n)| (c, n as f64))
                    .collect(),
            ));
        }
    }
    let mut out = render_blocks(&blocks);
    out.push_str(&format!(
        "# {family}: cosine {:.3}, mean {:.1} vs truth {:.1}, eval {} points (cap {MAX_EVAL_POINTS})\n",
        f.eval.cosine, f.eval.pred_mean, f.eval.truth_mean, f.eval.n
    ));
    out
}

fn f14_org_map(t: &GeneratedTrace, _r: &AnalysisReport) -> String {
    // The paper's Fig. 14: Pandora, February 2013.
    let feb = (
        Timestamp::from_date(2013, 2, 1),
        Timestamp::from_date(2013, 3, 1),
    );
    let mut analysis = OrgAnalysis::compute(&t.dataset, Family::Pandora, Some(feb));
    if analysis.markers.is_empty() {
        // Scaled-down traces may be sparse in February; fall back to the
        // whole window so the artifact is never empty.
        analysis = OrgAnalysis::compute(&t.dataset, Family::Pandora, None);
    }
    let mut table = Table::new(
        "Fig. 14 - Pandora organization-level targets",
        &["org", "lat", "lon", "attacks", "targets"],
    );
    for m in analysis.markers.iter().take(40) {
        let name = t
            .geo
            .org(m.org)
            .map(|o| o.name.clone())
            .unwrap_or_else(|| m.org.to_string());
        table.row(&[
            name,
            format!("{:.2}", m.coords.lat),
            format!("{:.2}", m.coords.lon),
            m.attacks.to_string(),
            m.targets.to_string(),
        ]);
    }
    let mut out = table.render();
    if let Some((family, orgs)) = widest_presence(&t.dataset) {
        out.push_str(&format!(
            "# widest presence: {family} attacking {orgs} organizations (paper: Dirtjumper)\n"
        ));
    }
    out
}

fn f15_intra_collabs(t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let points = r
        .collaborations
        .intra_family_points(&t.dataset, Family::Dirtjumper);
    let mut table = Table::new(
        "Fig. 15 - Dirtjumper intra-family collaborations",
        &["botnet", "date", "magnitude"],
    );
    for &(botnet, date, magnitude) in points.iter().take(60) {
        table.row(&[botnet.to_string(), date.to_string(), magnitude.to_string()]);
    }
    let mut out = table.render();
    if let Some(avg) = r.collaborations.mean_botnets_per_event(Family::Dirtjumper) {
        out.push_str(&format!(
            "# mean botnets per collaboration event: {avg:.2} (paper 2.19); {} points total\n",
            points.len()
        ));
    }
    out
}

fn f16_flagship_pair(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let Some(focus) = &r.flagship_pair else {
        return String::from("# no Dirtjumper x Pandora collaborations detected\n");
    };
    let dur_a: Vec<(f64, f64)> = focus
        .series
        .iter()
        .map(|&(t, da, ..)| (t.unix() as f64, da))
        .collect();
    let dur_b: Vec<(f64, f64)> = focus
        .series
        .iter()
        .map(|&(t, _, db, ..)| (t.unix() as f64, db))
        .collect();
    let mag_a: Vec<(f64, f64)> = focus
        .series
        .iter()
        .map(|&(t, _, _, ma, _)| (t.unix() as f64, ma as f64))
        .collect();
    let mag_b: Vec<(f64, f64)> = focus
        .series
        .iter()
        .map(|&(t, _, _, _, mb)| (t.unix() as f64, mb as f64))
        .collect();
    let mut out = render_blocks(&[
        Series::new("dirtjumper_duration_s", dur_a),
        Series::new("pandora_duration_s", dur_b),
        Series::new("dirtjumper_magnitude", mag_a),
        Series::new("pandora_magnitude", mag_b),
    ]);
    out.push_str(&format!(
        "# {} events, {} unique targets (paper 96) in {} countries (paper 16), {} orgs (paper 58), {} ASes (paper 61)\n",
        focus.series.len(),
        focus.unique_targets,
        focus.countries.len(),
        focus.organizations,
        focus.asns
    ));
    out.push_str(&format!(
        "# mean durations: dirtjumper {:.0}s (paper 5083), pandora {:.0}s (paper 6420)\n",
        focus.mean_duration_a, focus.mean_duration_b
    ));
    out
}

fn f17_chain_gaps(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let Some(cdf) = r.multistage.gap_cdf() else {
        return String::from("# no chains detected\n");
    };
    let mut out = Series::new("chain_gap_cdf", cdf.points())
        .downsample(300)
        .render();
    out.push_str(&format!(
        "# under 10s: {:.3} (paper ~0.65); under 30s: {:.3} (paper ~0.80)\n",
        cdf.eval(10.0),
        cdf.eval(30.0)
    ));
    if let Some((mean, median, std)) = r.multistage.gap_stats() {
        out.push_str(&format!(
            "# gap mean {mean:.2}s, median {median:.1}s, std {std:.1}s\n"
        ));
    }
    out
}

fn f18_chain_timeline(t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let timeline = r.multistage.timeline(&t.dataset);
    let mut table = Table::new(
        "Fig. 18 - consecutive attacks over time",
        &["start", "target", "family", "magnitude"],
    );
    for &(start, target, family, magnitude) in timeline.iter().take(80) {
        table.row(&[
            start.to_string(),
            target.to_string(),
            family.to_string(),
            magnitude.to_string(),
        ]);
    }
    let mut out = table.render();
    if let Some(longest) = r.multistage.longest() {
        out.push_str(&format!(
            "# {} chained attacks in {} chains; longest {} links by {} (paper: 22 by ddoser on 2012-08-30); families {:?}\n",
            timeline.len(),
            r.multistage.chains.len(),
            longest.len(),
            longest.families[0],
            r.multistage
                .chain_families()
                .iter()
                .map(|f| f.name())
                .collect::<Vec<_>>()
        ));
    }
    out
}

// -------------------------------------------------------------- extensions

fn x1_activity(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let mut table = Table::new(
        "Ext. 1 - family activity levels",
        &["family", "attacks", "active days", "duty", "attacks/day"],
    );
    for a in &r.activity {
        table.row(&[
            a.family.to_string(),
            a.attacks.to_string(),
            a.active_days.to_string(),
            format!("{:.2}", a.duty_cycle),
            format!("{:.1}", a.attacks_per_active_day),
        ]);
    }
    let mut out = table.render();
    if let Some(be) = r.activity.iter().find(|a| a.family == Family::Blackenergy) {
        out.push_str(&format!(
            "# blackenergy duty cycle {:.2} (paper: active ~1/3 of the period)\n",
            be.duty_cycle
        ));
    }
    out
}

fn x2_recurrence(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let rec = &r.recurrence;
    let mut out = String::new();
    out.push_str(&format!(
        "# {} repeatedly-attacked targets; {} evaluated for next-start prediction\n",
        rec.trains.len(),
        rec.outcomes.len()
    ));
    if let Some(train) = rec.hottest_target() {
        out.push_str(&format!(
            "# hottest target {} suffered {} attacks from {:?}\n",
            train.target,
            train.len(),
            train.families.iter().map(|f| f.name()).collect::<Vec<_>>()
        ));
    }
    if let Some(cdf) = rec.error_cdf() {
        out.push_str(
            &Series::new("abs_error_cdf_s", cdf.points())
                .downsample(200)
                .render(),
        );
    }
    if let Some(median) = rec.median_abs_error() {
        let close = rec
            .outcomes
            .iter()
            .filter(|o| o.relative_error <= 0.5)
            .count() as f64
            / rec.outcomes.len().max(1) as f64;
        out.push_str(&format!(
            "# median |error| {:.0}s; within 1 h {:.2}; within half a typical gap {close:.2}\n",
            median,
            rec.fraction_within(3_600.0),
        ));
        out.push_str(
            "# note: synthetic per-target trains are Zipf-recurrent, not periodic, so\n             # accuracy is judged relative to each target's own cadence\n",
        );
    }
    out
}

fn x3_blacklist(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let sim = &r.blacklist;
    let mut table = Table::new(
        "Ext. 3 - blacklist coverage by repeat round",
        &["round", "mean coverage", "samples"],
    );
    for (round, mean, n) in sim.coverage_by_round(8) {
        table.row(&[round.to_string(), format!("{mean:.3}"), n.to_string()]);
    }
    let mut out = table.render();
    if let Some(mean) = sim.mean_coverage() {
        out.push_str(&format!(
            "# overall mean coverage {mean:.3} over {} repeat attacks\n",
            sim.hits.len()
        ));
    }
    for family in [Family::Dirtjumper, Family::Pandora] {
        if let Some(mean) = sim.mean_coverage_for(family) {
            out.push_str(&format!("# {family}: {mean:.3}\n"));
        }
    }
    out
}

fn x4_latency(_t: &GeneratedTrace, r: &AnalysisReport) -> String {
    let mut table = Table::new(
        "Ext. 4 - detection-latency sweep",
        &["latency", "mitigable attack-time", "attacks fully missed"],
    );
    for p in &r.latency {
        let label = match p.latency_s as i64 {
            60 => "1 min (automatic)".to_string(),
            600 => "10 min".to_string(),
            3_600 => "1 h (semi-automatic)".to_string(),
            14_400 => "4 h (paper's window)".to_string(),
            86_400 => "1 day (manual)".to_string(),
            other => format!("{other}s"),
        };
        table.row(&[
            label,
            format!("{:.3}", p.mitigable_fraction),
            format!("{:.3}", p.missed_attacks),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "# §III-D: only automatic detection responds inside the typical attack lifetime\n",
    );
    out
}

fn x5_takedown(t: &GeneratedTrace, _r: &AnalysisReport) -> String {
    let bots = BotIndex::build(&t.dataset);
    let steps = ddos_analytics::defense::takedown_priority(&t.dataset, &bots, 10);
    let mut table = Table::new(
        "Ext. 5 - country-prioritized takedown",
        &[
            "step",
            "country",
            "bots removed",
            "cumulative participation removed",
        ],
    );
    for (i, s) in steps.iter().enumerate() {
        table.row(&[
            (i + 1).to_string(),
            s.country.to_string(),
            s.bots_removed.to_string(),
            format!("{:.3}", s.cumulative_participation_removed),
        ]);
    }
    let mut out = table.render();
    if let Some(last) = steps.last() {
        out.push_str(&format!(
            "# disinfecting the top {} countries removes {:.0}% of attack participation\n",
            steps.len(),
            last.cumulative_participation_removed * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    fn fixtures() -> &'static (GeneratedTrace, AnalysisReport) {
        static FIX: OnceLock<(GeneratedTrace, AnalysisReport)> = OnceLock::new();
        FIX.get_or_init(|| {
            let trace = ddos_sim::generate(&ddos_sim::SimConfig::small());
            let report = AnalysisReport::run(&trace.dataset);
            (trace, report)
        })
    }

    #[test]
    fn registry_covers_every_table_and_figure() {
        let ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        for t in ["t1", "t2", "t3", "t4", "t5", "t6"] {
            assert!(ids.contains(&t), "missing {t}");
        }
        for f in 1..=18 {
            let id = format!("f{f}");
            assert!(ids.iter().any(|&i| i == id), "missing {id}");
        }
        for x in 1..=5 {
            let id = format!("x{x}");
            assert!(ids.iter().any(|&i| i == id), "missing extension {id}");
        }
        // Ids are unique.
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ids.len());
    }

    #[test]
    fn every_experiment_renders_nonempty() {
        let (trace, report) = fixtures();
        for e in EXPERIMENTS {
            let out = render(e.id, trace, report).expect("registered id renders");
            assert!(!out.trim().is_empty(), "{} rendered empty", e.id);
        }
    }

    #[test]
    fn unknown_id_is_none() {
        let (trace, report) = fixtures();
        assert!(render("f99", trace, report).is_none());
    }

    #[test]
    fn table_ii_lists_dirtjumper_http() {
        let (trace, report) = fixtures();
        let out = render("t2", trace, report).unwrap();
        assert!(out.contains("HTTP"));
        assert!(out.contains("dirtjumper"));
    }

    #[test]
    fn figure_outputs_are_tsv_like() {
        let (trace, report) = fixtures();
        for id in ["f2", "f3", "f7", "f8"] {
            let out = render(id, trace, report).unwrap();
            assert!(out.contains('\t'), "{id} has no TSV rows");
            assert!(out.contains("# "), "{id} has no annotation");
        }
    }
}
