; forwarding-heavy fan, 60 rounds: a hub register rewritten twice per
; round, each rewrite feeding three dependent accumulators; hub and
; accumulators start from the initial registers
        li   r9, 60
        li   r10, 0
loop:
        addi r1, r1, 1
        add  r2, r2, r1
        add  r3, r3, r1
        add  r4, r4, r1
        addi r1, r1, 2
        add  r5, r5, r1
        add  r6, r6, r1
        add  r7, r7, r1
        subi r9, r9, 1
        bne  r9, r10, loop
        halt
