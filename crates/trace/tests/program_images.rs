//! Exactness pins for the packed program image.
//!
//! Every pinned hash below was captured from the representation the image
//! replaced (one `Vec<StaticOp>` per function, one private build per mix
//! slot): the committed stream of every core and `Program::decode` over a
//! whole shifted text span must not move when the storage of the program
//! changes. The tests after the pins check that the appender refuses a
//! field that does not fit its packed width instead of truncating it,
//! that a program too large for a mix slot is refused, and that a
//! duty-cycled slot shares its full-duty twin's image.

use tifs_trace::program::{CalleeSpec, FuncId, Function, Program, StaticOp};
use tifs_trace::workload::{CellPrograms, CellWorkload, Workload, WorkloadSpec};
use tifs_trace::{Addr, BranchKind, FetchRecord, MemClass, BLOCK_BYTES, INSTR_BYTES};

/// Cores of the Table II CMP.
const CORES: usize = 4;
/// Records hashed per core.
const RECORDS: usize = 100_000;
const SEED: u64 = 42;

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn hash_record(h: &mut Fnv, r: &FetchRecord) {
    h.u64(r.pc.0);
    let mem = match r.mem {
        MemClass::None => 0,
        MemClass::LoadL1 => 1,
        MemClass::LoadL2 => 2,
        MemClass::LoadMem => 3,
        MemClass::Store => 4,
    };
    h.bytes(&[mem, u8::from(r.trap), u8::from(r.flush)]);
    match r.branch {
        None => h.bytes(&[0]),
        Some(b) => {
            let kind = match b.kind {
                BranchKind::Conditional => 1,
                BranchKind::Jump => 2,
                BranchKind::Call => 3,
                BranchKind::Return => 4,
            };
            h.bytes(&[kind, u8::from(b.taken), u8::from(b.inner_loop)]);
            h.u64(b.target.0);
        }
    }
}

/// FNV-64 of the first [`RECORDS`] records of each core's walker.
fn walker_pins(w: &Workload) -> [u64; CORES] {
    std::array::from_fn(|core| {
        let mut h = Fnv::new();
        for r in w.walker(core).take(RECORDS) {
            hash_record(&mut h, &r);
        }
        h.0
    })
}

#[test]
fn table1_walkers_are_pinned_at_slots_0_and_2() {
    let expected: [(&str, [u64; CORES], [u64; CORES]); 6] = [
        (
            "OLTP DB2",
            [
                0xdeb2_ca0f_cb81_7d40,
                0x0675_9deb_96bd_8313,
                0xf41c_3594_734e_abbc,
                0xe374_f648_ef2a_46ff,
            ],
            [
                0x8503_071c_9c6a_2e0a,
                0x5bd7_0eef_4896_6de1,
                0x5a83_2cfe_fe35_d6a4,
                0xfc6a_bfad_ce5f_80eb,
            ],
        ),
        (
            "OLTP Oracle",
            [
                0xf96b_de27_5059_5d98,
                0xd83e_38d0_ac04_c06d,
                0x2ece_e648_8714_e849,
                0xa48c_7fee_61ae_9653,
            ],
            [
                0x2a86_12cb_6905_2ce0,
                0x6746_4b2f_efee_2b5f,
                0x7c6b_85b1_0247_6e73,
                0x1769_5e87_15f5_d149,
            ],
        ),
        (
            "DSS Qry2",
            [
                0xff16_a3ba_5a7f_1b8e,
                0x722b_7de2_3070_333c,
                0x1740_0011_b313_6433,
                0xe450_8764_1b56_75af,
            ],
            [
                0x4ef3_a903_bdf8_cbe4,
                0xfe87_c625_e0c4_49d4,
                0x292b_0b07_2bfd_f153,
                0x741b_1b22_86d3_b3bd,
            ],
        ),
        (
            "DSS Qry17",
            [
                0x0029_10df_854a_28b6,
                0x1a76_d327_e2f3_670b,
                0x80d3_a0a0_d772_9dbe,
                0x4287_b6b6_94dd_623c,
            ],
            [
                0x2af1_c622_3913_eca6,
                0xd747_aa0c_695a_7b0f,
                0x7a4b_9c89_5b70_52de,
                0x3605_ce74_9e89_53ee,
            ],
        ),
        (
            "Web Apache",
            [
                0xff7f_4d2b_8cfb_9c14,
                0x334e_a502_4718_7d77,
                0x0d56_c8dc_9c8f_5268,
                0x44fb_0142_6921_77e3,
            ],
            [
                0x13f2_2d5b_8293_b342,
                0x8999_4e2b_93ff_ac7f,
                0xd289_9f5d_8688_b8be,
                0xfef8_9cdd_3681_a919,
            ],
        ),
        (
            "Web Zeus",
            [
                0x0387_28fa_213a_cb01,
                0x706f_cc37_7ae3_d0ed,
                0x17a5_4419_b4a4_270f,
                0x86be_d612_f636_61aa,
            ],
            [
                0x4ee4_0db1_9110_5305,
                0x1517_d04a_0f49_7625,
                0x7a25_e1b0_3b9a_1ae7,
                0x51ae_3c54_273d_2284,
            ],
        ),
    ];
    let actual: Vec<(&str, [u64; CORES], [u64; CORES])> = WorkloadSpec::all_six()
        .iter()
        .map(|spec| {
            (
                spec.name,
                walker_pins(&Workload::build_at(spec, SEED, 0)),
                walker_pins(&Workload::build_at(spec, SEED, 2)),
            )
        })
        .collect();
    assert_eq!(actual, expected);
}

#[test]
fn duty_cycled_switching_walkers_are_pinned() {
    let spec = WorkloadSpec::oltp_db2()
        .with_duty_cycle(0.25)
        .with_ctx_switch_period(50_000);
    assert_eq!(
        walker_pins(&Workload::build(&spec, SEED)),
        [
            0x4f34_bf8b_5f39_ab2a,
            0x8461_1431_a682_af6f,
            0x3465_f82c_426b_c3c2,
            0x9e9d_c0d5_d53c_f9fa,
        ]
    );
}

#[test]
fn slot_2_decode_is_pinned_over_its_whole_text_span() {
    let w = Workload::build_at(&WorkloadSpec::oltp_db2(), SEED, 2);
    let text = w.program.text_range();
    let (start, end) = (text.start.0 - BLOCK_BYTES, text.end.0 + BLOCK_BYTES);
    let mut h = Fnv::new();
    let mut mapped = 0u64;
    for pc in (start..end).step_by(INSTR_BYTES as usize) {
        match w.program.decode(Addr(pc)) {
            None => h.bytes(&[0]),
            Some(at) => {
                mapped += 1;
                h.bytes(&[1]);
                h.bytes(&at.func.0.to_le_bytes());
                h.bytes(&at.idx.to_le_bytes());
            }
        }
    }
    assert_eq!(mapped * INSTR_BYTES, w.program.text_bytes());
    assert_eq!(
        (start, end, h.0),
        (0x020f_ffc0, 0x0222_720c, 0x5292_5056_2476_ccc9)
    );
}

fn one_function(ops: Vec<StaticOp>) -> Program {
    Program::new(vec![Function {
        base: Addr(0x1000),
        ops,
    }])
}

#[test]
#[should_panic(expected = "branch target 268435456 does not fit the 28-bit op argument")]
fn appender_rejects_an_oversized_branch_target() {
    one_function(vec![
        StaticOp::CondBranch {
            target: 1 << 28,
            taken_prob: 0.5,
            inner_loop: false,
        },
        StaticOp::Return,
    ]);
}

#[test]
#[should_panic(expected = "jump target 268435456 does not fit the 28-bit op argument")]
fn appender_rejects_an_oversized_jump_target() {
    one_function(vec![StaticOp::Jump { target: 1 << 28 }, StaticOp::Return]);
}

#[test]
#[should_panic(expected = "callee 268435456 does not fit the 28-bit op argument")]
fn appender_rejects_an_oversized_callee() {
    one_function(vec![
        StaticOp::Call(CalleeSpec::Direct(FuncId(1 << 28))),
        StaticOp::Return,
    ]);
}

#[test]
#[should_panic(expected = "out of range")]
fn widest_callee_packs_and_then_fails_the_range_check() {
    one_function(vec![
        StaticOp::Call(CalleeSpec::Direct(FuncId((1 << 28) - 1))),
        StaticOp::Return,
    ]);
}

/// A tenant with ~17.6 MB of text: more than the 16 MB between mix slot
/// bases, so placing it would alias the next slot's addresses.
#[test]
#[should_panic(expected = "overflow the 16777216-byte mix slot")]
fn oversized_program_does_not_fit_a_mix_slot() {
    let oversized = WorkloadSpec {
        name: "oversized",
        func_instrs: (20_000, 20_000),
        shared_pool: 220,
        ..WorkloadSpec::tiny_test()
    };
    CellPrograms::build(
        &CellWorkload::Mix(vec![oversized, WorkloadSpec::tiny_test()]),
        SEED,
    );
}

#[test]
fn duty_cycled_slot_shares_the_full_duty_image() {
    let base = WorkloadSpec::tiny_server();
    let cell = CellWorkload::Mix(vec![base.clone(), base.with_duty_cycle(0.25)]);
    let programs = CellPrograms::build(&cell, SEED);
    let [full, idle] = programs.slots() else {
        panic!("two distinct specs, two slots");
    };
    assert!(idle.program.shares_image(&full.program));
    let (a, b) = (full.program.text_range(), idle.program.text_range());
    assert_eq!(b.start.0 - a.start.0, 0x0100_0000, "one slot stride apart");
    assert_eq!(b.end.0 - b.start.0, a.end.0 - a.start.0);
    assert_eq!(idle.exec.duty_cycle, 0.25);
    assert_eq!(full.exec.duty_cycle, 1.0);
}
