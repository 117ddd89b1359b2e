//! Cross-version golden values for the cycle backend.
//!
//! The timing-graph ↔ object-walk equivalence suite compares two
//! execution paths that share every machine primitive (time and energy
//! arithmetic, bank and PE accounting, cluster issue), so a drift in a
//! shared primitive moves both paths together and goes unseen there.
//! This test pins the absolute f64 bit patterns instead: total energy,
//! every slice energy, every migration energy and every per-layer
//! energy/time, over HH-PIM × {MobileNetV2, EfficientNet-B0, ResNet-18}
//! and {Baseline, Hybrid, Heterogeneous} × MobileNetV2, on a short
//! trace whose load swings force LUT re-placements (migration traffic
//! included).
//!
//! The golden text is the report rendered by [`fingerprint`]. On a
//! mismatch the assertion prints the full new rendering, so an
//! *intentional* model change re-records by pasting it in.

use hhpim::{Architecture, CycleBackend, ExecutionBackend, ExecutionReport};
use hhpim_nn::TinyMlModel;
use hhpim_workload::LoadTrace;

/// Low/high swings: every change of task count is a potential LUT
/// re-placement on HH-PIM.
const LOADS: [f64; 6] = [0.2, 1.0, 0.1, 0.6, 1.0, 0.2];

fn run(arch: Architecture, model: TinyMlModel) -> ExecutionReport {
    let trace = LoadTrace::replay(LOADS.to_vec()).unwrap();
    CycleBackend::new(arch, model)
        .unwrap()
        .execute(&trace)
        .unwrap()
}

/// One line per pinned value: f64s as their bit patterns, durations
/// and counters as integers.
fn fingerprint(report: &ExecutionReport) -> String {
    let bits = |pj: f64| format!("{:#018x}", pj.to_bits());
    let mut out = format!(
        "total {} elapsed_ps {} instructions {} macs {}\n",
        bits(report.total_energy().as_pj()),
        report.elapsed.as_ps(),
        report.instructions,
        report.macs
    );
    for r in &report.records {
        out += &format!(
            "slice {} tasks {} energy {}\n",
            r.slice,
            r.n_tasks,
            bits(r.energy.as_pj())
        );
    }
    for m in &report.migrations {
        out += &format!(
            "migration {} bytes {} energy {}\n",
            m.slice,
            m.bytes,
            bits(m.energy.as_pj())
        );
    }
    for l in &report.layers {
        out += &format!(
            "layer {} energy {} time_ps {}\n",
            l.layer,
            bits(l.energy.as_pj()),
            l.time.as_ps()
        );
    }
    out
}

fn check(arch: Architecture, model: TinyMlModel, golden: &str) {
    let report = run(arch, model);
    if arch == Architecture::HhPim {
        assert!(
            !report.migrations.is_empty(),
            "{model:?}: the golden trace must exercise migration traffic"
        );
    }
    let actual = fingerprint(&report);
    if actual != golden {
        let first = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .unwrap_or_else(|| actual.lines().count().min(golden.lines().count()));
        panic!(
            "{arch:?}/{model:?} drifted from its golden values at line {}:\n  \
             golden: {:?}\n  actual: {:?}\nfull actual rendering:\n{actual}",
            first + 1,
            golden.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}

#[test]
fn hhpim_mobilenetv2_matches_golden() {
    check(
        Architecture::HhPim,
        TinyMlModel::MobileNetV2,
        HHPIM_MOBILENETV2,
    );
}

#[test]
fn hhpim_efficientnet_b0_matches_golden() {
    check(
        Architecture::HhPim,
        TinyMlModel::EfficientNetB0,
        HHPIM_EFFICIENTNET_B0,
    );
}

#[test]
fn hhpim_resnet18_matches_golden() {
    check(Architecture::HhPim, TinyMlModel::ResNet18, HHPIM_RESNET18);
}

#[test]
fn baseline_mobilenetv2_matches_golden() {
    check(
        Architecture::Baseline,
        TinyMlModel::MobileNetV2,
        BASELINE_MOBILENETV2,
    );
}

#[test]
fn hybrid_mobilenetv2_matches_golden() {
    check(
        Architecture::Hybrid,
        TinyMlModel::MobileNetV2,
        HYBRID_MOBILENETV2,
    );
}

#[test]
fn heterogeneous_mobilenetv2_matches_golden() {
    check(
        Architecture::Heterogeneous,
        TinyMlModel::MobileNetV2,
        HETEROGENEOUS_MOBILENETV2,
    );
}

const HHPIM_MOBILENETV2: &str = "\
total 0x4261b21212801e88 elapsed_ps 1484257053177 instructions 2261 macs 62702208
slice 0 tasks 2 energy 0x421718309237739d
slice 1 tasks 10 energy 0x424760cb0a652eee
slice 2 tasks 1 energy 0x4216f393f2eadb1d
slice 3 tasks 6 energy 0x423b9c3d80b2865b
slice 4 tasks 10 energy 0x42475783462ef35e
slice 5 tasks 2 energy 0x4222018aa1bb2b2d
migration 1 bytes 63488 energy 0x41bc03fb553cdde8
migration 2 bytes 101376 energy 0x41cfc448a7c17a64
migration 3 bytes 101376 energy 0x41c90a61cc361129
migration 4 bytes 22016 energy 0x41a36e1dcba1f548
migration 5 bytes 63488 energy 0x41bc5c8a28e2e440
layer 0 energy 0x421ac4f2577a67b3 time_ps 48524249398
layer 2 energy 0x42205bf0baba569e time_ps 59308230487
layer 4 energy 0x421ac4f2577a67c5 time_ps 48524249398
layer 6 energy 0x42205bf0baba55db time_ps 59308230487
layer 8 energy 0x42205bf0baba5612 time_ps 59308230487
layer 10 energy 0x41fac5573c79d166 time_ps 12132491937
layer 12 energy 0x42105c175e667928 time_ps 29655335434
layer 13 energy 0x42205bf0baba5588 time_ps 59308230487
layer 15 energy 0x420ac52919ea1fb5 time_ps 24262665604
layer 17 energy 0x42205bf0baba5638 time_ps 59308230487
layer 19 energy 0x42205bf0baba561b time_ps 59308230487
layer 21 energy 0x41eac6bd38565e63 time_ps 6067405103
layer 23 energy 0x42105c175e667944 time_ps 29655335434
layer 24 energy 0x42205bf0baba5615 time_ps 59308230487
layer 26 energy 0x41fac5573c79cf9d time_ps 12132491937
layer 28 energy 0x42205bf0baba5676 time_ps 59308230487
layer 30 energy 0x42205bf0baba55fb time_ps 59308230487
layer 32 energy 0x41e348c679f91805 time_ps 4371297497
layer 34 energy 0x42178e767bbad764 time_ps 42701409855
layer 35 energy 0x42278e6fcd1fe532 time_ps 85401119670
layer 37 energy 0x41f347a8d310a69f time_ps 8738427154
layer 39 energy 0x42278e6fcd1fe43b time_ps 85401119670
layer 41 energy 0x420f68f367336ece time_ps 28468789774
layer 44 energy 0x41b0e8c9b16cb28e time_ps 614023738
";

const HHPIM_EFFICIENTNET_B0: &str = "\
total 0x42682311fcef8b5c elapsed_ps 2020616400764 instructions 2261 macs 85512932
slice 0 tasks 2 energy 0x421f7bd310d02a3e
slice 1 tasks 10 energy 0x424ffd8105568fc3
slice 2 tasks 1 energy 0x421eb018be18ed88
slice 3 tasks 6 energy 0x4242b7826ebf6736
slice 4 tasks 10 energy 0x424ff4e93c6edd2b
slice 5 tasks 2 energy 0x422873772570d968
migration 1 bytes 60416 energy 0x41baa8f34cfbfc4a
migration 2 bytes 95232 energy 0x41cde8baac8ffbd0
migration 3 bytes 95232 energy 0x41c779ccb29f169c
migration 4 bytes 22016 energy 0x41a36e1dcba1f548
migration 5 bytes 60416 energy 0x41bafd3926e86f54
layer 0 energy 0x42205869c7265821 time_ps 58742180416
layer 2 energy 0x4225cb3fc849e4d2 time_ps 78322134465
layer 4 energy 0x4225cb3fc849e506 time_ps 78322134465
layer 6 energy 0x4225cb3fc849e4a4 time_ps 78322134465
layer 8 energy 0x4225cb3fc849e576 time_ps 78322134465
layer 10 energy 0x421e4537a0aaa598 time_ps 54393177573
layer 12 energy 0x4215cb4b50edd27c time_ps 39162226367
layer 13 energy 0x4225cb3fc849e4ae time_ps 78322134465
layer 15 energy 0x422e44ef1cb36fb3 time_ps 108780828736
layer 17 energy 0x4225cb3fc849e4c0 time_ps 78322134465
layer 19 energy 0x4225cb3fc849e545 time_ps 78322134465
layer 21 energy 0x41f5ccfda73c1de0 time_ps 9795133264
layer 23 energy 0x4215cb4b50edd2d7 time_ps 39162226367
layer 24 energy 0x4225cb3fc849e4a5 time_ps 78322134465
layer 26 energy 0x4205cba4cfe4f848 time_ps 19582272318
layer 28 energy 0x4225cb3fc849e555 time_ps 78322134465
layer 30 energy 0x4225cb3fc849e453 time_ps 78322134465
layer 32 energy 0x41e5cc883b910333 time_ps 4897182752
layer 34 energy 0x4215cb4b50edd13b time_ps 39162226367
layer 35 energy 0x4225cb3fc849e522 time_ps 78322134465
layer 37 energy 0x41f5ccfda73c22ef time_ps 9795133264
layer 39 energy 0x4225cb3fc849e4a6 time_ps 78322134465
layer 41 energy 0x4210589cef0d3874 time_ps 29372619513
layer 44 energy 0x41b4bde6589cc0b6 time_ps 752162042
";

const HHPIM_RESNET18: &str = "\
total 0x42987450ec95a4a3 elapsed_ps 16230634473780 instructions 1617 macs 687742408
slice 0 tasks 2 energy 0x42515b065306a0b6
slice 1 tasks 10 energy 0x42800ea622b9a0ee
slice 2 tasks 1 energy 0x424def2748321d6f
slice 3 tasks 6 energy 0x4273058a3bb13002
slice 4 tasks 10 energy 0x42800cd41252e281
slice 5 tasks 2 energy 0x425a007a3b11bf0a
migration 1 bytes 162304 energy 0x41d42b83b564d80a
migration 2 bytes 256000 energy 0x41e419115ab7cb9c
migration 3 bytes 256000 energy 0x41dfd7c5f67d57c7
migration 4 bytes 52224 energy 0x41b70b888c4efca4
migration 5 bytes 162304 energy 0x41d5c41f7ec26997
layer 0 energy 0x4237a797ffbee602 time_ps 166974873481
layer 2 energy 0x4260c1538389f965 time_ps 946177973606
layer 4 energy 0x4260c1538389f995 time_ps 946177973606
layer 7 energy 0x4260c1538389f986 time_ps 946177973606
layer 9 energy 0x4260c1538389f98c time_ps 946177973606
layer 12 energy 0x4250c155e24bedb4 time_ps 473091687673
layer 14 energy 0x4260c1538389f9c6 time_ps 946177973606
layer 16 energy 0x422dc99da58d533e time_ps 105133798366
layer 18 energy 0x4250c155e24bee22 time_ps 473091687673
layer 20 energy 0x4260c1538389f92b time_ps 946177973606
layer 22 energy 0x422dc99da58d5ade time_ps 105133798366
layer 24 energy 0x4260c1538389f982 time_ps 946177973606
layer 26 energy 0x4260c1538389f9b0 time_ps 946177973606
layer 29 energy 0x4260c1538389f931 time_ps 946177973606
layer 31 energy 0x4260c1538389f9cf time_ps 946177973606
layer 35 energy 0x41aa275a1476e820 time_ps 475885434
";

const BASELINE_MOBILENETV2: &str = "\
total 0x4271b00d4d26efe1 elapsed_ps 1484257053177 instructions 1643 macs 62701840
slice 0 tasks 2 energy 0x423f8f932432fd2d
slice 1 tasks 10 energy 0x4251bf32777ef637
slice 2 tasks 1 energy 0x423aa1ec4cf9e1ad
slice 3 tasks 6 energy 0x4249a317408bb628
slice 4 tasks 10 energy 0x4251bf32777ef721
slice 5 tasks 2 energy 0x423f8f932432fd8c
layer 0 energy 0x42238e95f55bb272 time_ps 26972313294
layer 2 energy 0x4227e6d08a0b4a52 time_ps 32963820934
layer 4 energy 0x42238e95f55bb210 time_ps 26972313294
layer 6 energy 0x4227e6d08a0b49b9 time_ps 32963820934
layer 8 energy 0x4227e6d08a0b4ada time_ps 32963820934
layer 10 energy 0x42038fc8d7a95b42 time_ps 6746302733
layer 12 energy 0x4217e759a9cff54a time_ps 16484426526
layer 13 energy 0x4227e6d08a0b4a3c time_ps 32963820934
layer 15 energy 0x42138eb6982006ac time_ps 13487573347
layer 17 energy 0x4227e6d08a0b4a72 time_ps 32963820934
layer 19 energy 0x4227e6d08a0b4a31 time_ps 32963820934
layer 21 energy 0x41f391ed56bc0c70 time_ps 3375667426
layer 23 energy 0x4217e759a9cff4ee time_ps 16484426526
layer 24 energy 0x4227e6d08a0b4a7a time_ps 32963820934
layer 26 energy 0x42038fc8d7a95a2d time_ps 6746302733
layer 28 energy 0x4227e6d08a0b4a98 time_ps 32963820934
layer 30 energy 0x4227e6d08a0b4a74 time_ps 32963820934
layer 32 energy 0x41ec2bbb4429baa7 time_ps 2430218514
layer 34 energy 0x422135c7335dfc9c time_ps 23735799810
layer 35 energy 0x42313582a37ba5e3 time_ps 47466567501
layer 37 energy 0x41fc2ab62e0723e5 time_ps 4857603627
layer 39 energy 0x42313582a37ba617 time_ps 47466567501
layer 41 energy 0x4216f274b1003202 time_ps 15824811006
layer 44 energy 0x41b9e2fc79282597 time_ps 394907958
";

const HYBRID_MOBILENETV2: &str = "\
total 0x426ff67c8fcf5480 elapsed_ps 1484257053177 instructions 1643 macs 62701840
slice 0 tasks 2 energy 0x42308261d36e1517
slice 1 tasks 10 energy 0x42549dd10a1c2ae3
slice 2 tasks 1 energy 0x4220878b119b8478
slice 3 tasks 6 energy 0x4248be697ef7b018
slice 4 tasks 10 energy 0x42549dd10a1c2ae4
slice 5 tasks 2 energy 0x42308261d36e155a
layer 0 energy 0x4228cd84982904bf time_ps 28292983702
layer 2 energy 0x422e501a6a7d4205 time_ps 34577889912
layer 4 energy 0x4228cd849829046d time_ps 28292983702
layer 6 energy 0x422e501a6a7d42b3 time_ps 34577889912
layer 8 energy 0x422e501a6a7d4295 time_ps 34577889912
layer 10 energy 0x4208cec563692a09 time_ps 7076524169
layer 12 energy 0x421e50b1850dff35 time_ps 17291514850
layer 13 energy 0x422e501a6a7d4200 time_ps 34577889912
layer 15 energy 0x4218cd972e47af23 time_ps 14147908551
layer 17 energy 0x422e501a6a7d415d time_ps 34577889912
layer 19 energy 0x422e501a6a7d42ef time_ps 34577889912
layer 21 energy 0x41f8d121cdac1cd0 time_ps 3540831978
layer 23 energy 0x421e50b1850e0031 time_ps 17291514850
layer 24 energy 0x422e501a6a7d42bd time_ps 34577889912
layer 26 energy 0x4208cec563692957 time_ps 7076524169
layer 28 energy 0x422e501a6a7d421e time_ps 34577889912
layer 30 energy 0x422e501a6a7d425c time_ps 34577889912
layer 32 energy 0x41f1dc6e10b89fea time_ps 2549085310
layer 34 energy 0x4225d38b08332177 time_ps 24897981154
layer 35 energy 0x4235d33f7aeac214 time_ps 49790822521
layer 37 energy 0x4201dc23b83dfe9c time_ps 5095337221
layer 39 energy 0x4235d33f7aeac216 time_ps 49790822521
layer 41 energy 0x421d1a1b19adf2db time_ps 16599598570
layer 44 energy 0x41be8461b097e801 time_ps 413857738
";

const HETEROGENEOUS_MOBILENETV2: &str = "\
total 0x42693d986c8f9057 elapsed_ps 1484257053177 instructions 2356 macs 62702336
slice 0 tasks 2 energy 0x42352b2823dc04f0
slice 1 tasks 10 energy 0x424a5b03c3e4d499
slice 2 tasks 1 energy 0x423139cc375e505d
slice 3 tasks 6 energy 0x4242784beae96b65
slice 4 tasks 10 energy 0x424a5b03c3e4d449
slice 5 tasks 2 energy 0x42352b2823dc04eb
layer 0 energy 0x421f178202346070 time_ps 34325892982
layer 2 energy 0x4223001428125eaf time_ps 41953247112
layer 4 energy 0x421f178202346080 time_ps 34325892982
layer 6 energy 0x4223001428125e86 time_ps 41953247112
layer 8 energy 0x4223001428125e42 time_ps 41953247112
layer 10 energy 0x41ff1816e8ed2e3e time_ps 8583297955
layer 12 energy 0x42130031dbb3d961 time_ps 20977473576
layer 13 energy 0x4223001428125dcb time_ps 41953247112
layer 15 energy 0x420f1708f107c910 time_ps 17162697152
layer 17 energy 0x4223001428125e51 time_ps 41953247112
layer 19 energy 0x4223001428125e31 time_ps 41953247112
layer 21 energy 0x41ef1a32d8b7ff2e time_ps 4293598357
layer 23 energy 0x42130031dbb3d8f8 time_ps 20977473576
layer 24 energy 0x4223001428125e67 time_ps 41953247112
layer 26 energy 0x41ff1816e8ed2e16 time_ps 8583297955
layer 28 energy 0x4223001428125e6d time_ps 41953247112
layer 30 energy 0x4223001428125e2f time_ps 41953247112
layer 32 energy 0x41e663b2058a83df time_ps 3090899392
layer 34 energy 0x421b5c04e87a6f8d time_ps 30205494701
layer 35 energy 0x422b5bf8b02395fe time_ps 60409289362
layer 37 energy 0x41f6635042d3cd13 time_ps 6180098744
layer 39 energy 0x422b5bf8b023962d time_ps 60409289362
layer 41 energy 0x42123d780f99b27e time_ps 20137563147
layer 44 energy 0x41b4ac4229579060 time_ps 535761939
";
