# Operand-scanning multiprecision multiply, k = 17 limbs (the
# bench_simspeed reference kernel, emitted by
# kernelSource(AsmKernel::MulOs, 17) -- regenerate from there if the
# generator changes).  Operands: A at 0x10000400 (2k limbs read),
# B at 0x10000500, result R at 0x10000600.  ctest
# tool_ulecc_run_golden runs it through ulecc-run --metrics, with and
# without an I-cache, and byte-compares the metrics against
# tests/golden/ulecc_run_mulos_k17*.json.
    li $a0, 268436480
    li $a1, 268436736
    li $a2, 268436992
    li $s0, 17

    move  $t9, $zero      # i = 0
outer:
    lw    $s1, 0($a1)     # bi
    move  $t8, $zero      # u
    move  $t7, $zero      # j
    move  $s2, $a0        # aptr
    sll   $t0, $t9, 2
    addu  $s3, $a2, $t0   # rptr = R + 4*i
inner:
    lw    $t0, 0($s2)     # aj
    multu $t0, $s1
    lw    $t1, 0($s3)     # p[i+j]
    addiu $s2, $s2, 4
    addiu $t7, $t7, 1
    mflo  $t2
    mfhi  $t3
    addu  $t4, $t2, $t1   # lo + p
    sltu  $t5, $t4, $t2
    addu  $t3, $t3, $t5   # hi += c (cannot overflow)
    addu  $t6, $t4, $t8   # + u
    sltu  $t5, $t6, $t4
    addu  $t8, $t3, $t5   # u' = hi + c
    sw    $t6, 0($s3)
    bne   $t7, $s0, inner
    addiu $s3, $s3, 4     # delay slot: bump rptr
    sw    $t8, 0($s3)     # p[i+k] = u
    addiu $t9, $t9, 1
    bne   $t9, $s0, outer
    addiu $a1, $a1, 4     # delay slot: bump bptr
    break
