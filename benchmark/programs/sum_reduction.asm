; sum the n words at word 1 into r4; word 0 holds n
        li   r7, 0
        lw   r2, 0(r7)
        li   r1, 1
        li   r4, 0
loop:
        lw   r5, (r1)
        add  r4, r4, r5
        addi r1, r1, 1
        subi r2, r2, 1
        bne  r2, r7, loop
        halt
