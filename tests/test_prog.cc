/**
 * @file
 * Unit tests of the program IR: builder, labels, validation,
 * assembler/disassembler round trips.
 */

#include <gtest/gtest.h>

#include "prog/assembler.hh"
#include "prog/builder.hh"
#include "prog/program.hh"

namespace wmr {
namespace {

TEST(Opcode, SyncClassification)
{
    EXPECT_TRUE(opcodeIsSync(Opcode::TestAndSet));
    EXPECT_TRUE(opcodeIsSync(Opcode::Unset));
    EXPECT_TRUE(opcodeIsSync(Opcode::SyncLoad));
    EXPECT_TRUE(opcodeIsSync(Opcode::SyncStore));
    EXPECT_FALSE(opcodeIsSync(Opcode::Load));
    EXPECT_FALSE(opcodeIsSync(Opcode::Store));
    EXPECT_FALSE(opcodeIsSync(Opcode::Fence));
}

TEST(Opcode, MemoryClassification)
{
    EXPECT_TRUE(opcodeAccessesMemory(Opcode::Load));
    EXPECT_TRUE(opcodeAccessesMemory(Opcode::StoreI));
    EXPECT_TRUE(opcodeAccessesMemory(Opcode::TestAndSet));
    EXPECT_FALSE(opcodeAccessesMemory(Opcode::MovI));
    EXPECT_FALSE(opcodeAccessesMemory(Opcode::Branch));
    EXPECT_FALSE(opcodeAccessesMemory(Opcode::Fence));
}

TEST(Builder, EmitsInstructions)
{
    ThreadBuilder t;
    t.movi(1, 5).load(2, 10).store(11, 2).halt();
    const Thread th = t.build();
    ASSERT_EQ(th.code.size(), 4u);
    EXPECT_EQ(th.code[0].op, Opcode::MovI);
    EXPECT_EQ(th.code[1].op, Opcode::Load);
    EXPECT_EQ(th.code[2].op, Opcode::Store);
    EXPECT_EQ(th.code[3].op, Opcode::Halt);
}

TEST(Builder, ResolvesBackwardLabel)
{
    ThreadBuilder t;
    t.label("top").addi(1, 1, 1).cmplti(2, 1, 3).bnz(2, "top").halt();
    const Thread th = t.build();
    EXPECT_EQ(th.code[2].op, Opcode::Branch);
    EXPECT_EQ(th.code[2].target, 0u);
}

TEST(Builder, ResolvesForwardLabel)
{
    ThreadBuilder t;
    t.bz(1, "end").movi(2, 1).label("end").halt();
    const Thread th = t.build();
    EXPECT_EQ(th.code[0].target, 2u);
}

TEST(Builder, AcquireLockShape)
{
    ThreadBuilder t;
    t.acquireLock(5, 0).halt();
    const Thread th = t.build();
    ASSERT_EQ(th.code.size(), 3u);
    EXPECT_EQ(th.code[0].op, Opcode::TestAndSet);
    EXPECT_EQ(th.code[0].addr, 5u);
    EXPECT_EQ(th.code[1].op, Opcode::Branch);
    EXPECT_EQ(th.code[1].target, 0u); // spin back to the tas
}

TEST(Builder, NoteAttaches)
{
    ThreadBuilder t;
    t.storei(0, 1).note("Write(x)").halt();
    EXPECT_EQ(t.build().code[0].note, "Write(x)");
}

TEST(Program, InitialMemoryDefaultsZero)
{
    Program p;
    p.setInitial(5, 42);
    EXPECT_EQ(p.initial(5), 42);
    EXPECT_EQ(p.initial(6), 0);
}

TEST(Program, MemWordsCoversStaticAddrs)
{
    ProgramBuilder pb;
    ThreadBuilder t;
    t.storei(17, 1).halt();
    pb.thread(t);
    const Program p = pb.build();
    EXPECT_GE(p.memWords(), 18u);
}

TEST(Program, SymbolLookup)
{
    ProgramBuilder pb;
    pb.var("flag", 3, 1);
    ThreadBuilder t;
    t.halt();
    pb.thread(t);
    const Program p = pb.build();
    EXPECT_EQ(p.addrOf("flag"), 3u);
    EXPECT_EQ(p.addrName(3), "flag");
    EXPECT_EQ(p.addrName(9), "[9]");
    EXPECT_EQ(p.initial(3), 1);
}

TEST(Program, DisassembleContainsNotes)
{
    ProgramBuilder pb;
    ThreadBuilder t;
    t.storei(0, 1).note("Write(x)").halt();
    pb.thread(t);
    const std::string text = pb.build().disassembleAll();
    EXPECT_NE(text.find("Write(x)"), std::string::npos);
    EXPECT_NE(text.find("storei"), std::string::npos);
}

TEST(Assembler, BasicProgram)
{
    const Program p = assemble(R"(
        .var x 0
        .var y 1 7
        .thread
            movi r1, 3
            store [x], r1
            load r2, [y]
            halt
        .thread
            storei [y], 9
            halt
    )");
    EXPECT_EQ(p.numProcs(), 2);
    EXPECT_EQ(p.initial(1), 7);
    const auto &c0 = p.thread(0).code;
    ASSERT_EQ(c0.size(), 4u);
    EXPECT_EQ(c0[0].op, Opcode::MovI);
    EXPECT_EQ(c0[1].op, Opcode::Store);
    EXPECT_EQ(c0[1].addr, 0u);
    EXPECT_EQ(c0[2].op, Opcode::Load);
    EXPECT_EQ(c0[2].addr, 1u);
}

TEST(Assembler, LabelsAndBranches)
{
    const Program p = assemble(R"(
        .var s 0 1
        .thread
        spin: tas r0, [s]
            bnz r0, spin
            unset [s]
            halt
    )");
    const auto &code = p.thread(0).code;
    EXPECT_EQ(code[1].op, Opcode::Branch);
    EXPECT_EQ(code[1].target, 0u);
    EXPECT_EQ(code[2].op, Opcode::Unset);
}

TEST(Assembler, IndexedAddressing)
{
    const Program p = assemble(R"(
        .thread
            movi r3, 4
            load r1, [10+r3]
            store [20+r3], r1
            halt
    )");
    const auto &code = p.thread(0).code;
    EXPECT_TRUE(code[1].indexed);
    EXPECT_EQ(code[1].addr, 10u);
    EXPECT_EQ(code[1].a, 3);
    EXPECT_TRUE(code[2].indexed);
}

TEST(Assembler, CommentsAndBlanks)
{
    const Program p = assemble(R"(
        # full-line comment
        .thread
            nop        ; trailing comment
            halt
    )");
    EXPECT_EQ(p.thread(0).code.size(), 2u);
}

TEST(Assembler, SyncOps)
{
    const Program p = assemble(R"(
        .var f 0
        .thread
            syncstorei [f], 1
            syncload r1, [f]
            fence
            halt
    )");
    const auto &code = p.thread(0).code;
    EXPECT_EQ(code[0].op, Opcode::SyncStoreI);
    EXPECT_EQ(code[1].op, Opcode::SyncLoad);
    EXPECT_EQ(code[2].op, Opcode::Fence);
}

TEST(Assembler, DisassembleRoundTrip)
{
    // Assemble, disassemble, re-assemble: same instruction stream.
    const Program p1 = assemble(R"(
        .thread
            movi r1, -5
            addi r2, r1, 3
            store [7], r2
            load r3, [7]
            bz r3, 5
            nop
            halt
    )");
    std::string text = ".thread\n";
    for (const auto &i : p1.thread(0).code)
        text += disassemble(i) + "\n";
    const Program p2 = assemble(text);
    const auto &a = p1.thread(0).code;
    const auto &b = p2.thread(0).code;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].op, b[i].op) << "instr " << i;
        EXPECT_EQ(a[i].imm, b[i].imm) << "instr " << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << "instr " << i;
        EXPECT_EQ(a[i].target, b[i].target) << "instr " << i;
    }
}

using AssemblerDeath = ::testing::Test;

TEST(AssemblerDeath, UnknownMnemonicFatals)
{
    EXPECT_EXIT(assemble(".thread\n frobnicate r1\n"),
                ::testing::ExitedWithCode(2), "unknown mnemonic");
}

TEST(AssemblerDeath, UnknownVariableFatals)
{
    EXPECT_EXIT(assemble(".thread\n load r1, [nosuch]\n"),
                ::testing::ExitedWithCode(2), "unknown variable");
}

TEST(AssemblerDeath, InstructionBeforeThreadFatals)
{
    EXPECT_EXIT(assemble("nop\n"), ::testing::ExitedWithCode(2),
                "before .thread");
}

} // namespace
} // namespace wmr
