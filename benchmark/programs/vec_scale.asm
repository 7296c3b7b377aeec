; scale the n words at word 2 in place by the factor at word 1, where
; word 0 holds n; every iteration is independent
        li   r7, 0
        lw   r2, 0(r7)
        lw   r3, 1(r7)
        li   r1, 2
loop:
        lw   r4, (r1)
        mul  r4, r4, r3
        sw   r4, (r1)
        addi r1, r1, 1
        subi r2, r2, 1
        bne  r2, r7, loop
        halt
