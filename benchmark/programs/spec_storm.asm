; 40 rounds over the shared words 0..16: a zero word makes the late-
; resolving beq mispredict, and on the wrong path a guarded probe branch
; compares the lane's own r9 (an initial register) against a threshold,
; so wrong paths diverge per lane while the committed path stays uniform.
; Lanes whose r9 lies in the top quarter of the range probe the other way
        li   r3, 40
        li   r12, 15
        li   r13, -1073741824 ; 0xC000_0000: the probe threshold
        li   r15, 1
        li   r8, 0
loop:
        and  r10, r8, r12
        lw   r4, (r10)
        div  r14, r4, r15   ; identity, but the beq resolves 10 cycles late
        beq  r14, r0, skip
        sltu r5, r0, r4     ; 1 on the committed path
        subi r6, r5, 1      ; 0 committed, all-ones on the wrong path
        and  r7, r9, r6     ; 0 committed, the lane probe on the wrong path
        bltu r7, r13, skip
        add  r2, r2, r13
skip:
        add  r2, r2, r4
        addi r8, r8, 1
        subi r3, r3, 1
        bne  r3, r0, loop
        halt
