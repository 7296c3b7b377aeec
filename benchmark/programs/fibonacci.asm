; n steps of a Fibonacci recurrence seeded from words 1 and 2, result in
; r2; word 0 holds n. A fully serial dependency chain
        li   r7, 0
        lw   r3, 0(r7)
        lw   r1, 1(r7)
        lw   r2, 2(r7)
loop:
        add  r4, r1, r2
        add  r1, r2, r7
        add  r2, r4, r7
        subi r3, r3, 1
        bne  r3, r7, loop
        halt
