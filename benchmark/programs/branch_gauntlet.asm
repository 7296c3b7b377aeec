; 50 rounds of a diamond keyed on the parity of the shared words 0..16,
; then a fan of independent accumulator adds; directions and addresses
; depend only on shared memory, values on the initial registers
        li   r3, 50
        li   r12, 15
        li   r8, 0
loop:
        and  r9, r8, r12
        lw   r10, (r9)
        andi r11, r10, 1
        beq  r11, r0, even
        add  r2, r2, r10
        j    join
even:
        sub  r2, r2, r10
join:
        add  r4, r4, r2
        add  r5, r5, r2
        add  r6, r6, r2
        addi r8, r8, 1
        subi r3, r3, 1
        bne  r3, r0, loop
        halt
